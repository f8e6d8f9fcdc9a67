#!/usr/bin/env python3
"""End-to-end walkthrough with freshly generated keys.

Builds a complete 2-of-3 escrow case from scratch: key material, the
arbitration agreement, the escrow deposit address, the arbitrator's wallet
attestation, the on-chain metadata line, the (legacy-serialized) award
transaction, and finally the authentication certificate. Every signature in
this run is genuine; only the escrow spend itself is out of scope, so the
transaction's input carries placeholder spend signatures.

Usage: python scripts/run_workflow.py [--seed TEXT] [--seat TheHague]
"""

import argparse
import json
import tempfile
from pathlib import Path

from eaward.attestation import (
    ArbitrationAgreement,
    Party,
    certify,
    match_transaction,
    metadata_for_agreement,
    validate_agreement,
)
from eaward.chain import ChainSource, broadcast, get_transaction, get_tx_status
from eaward.crypto import PrivateKey, TESTNET, hash256, pubkey_to_address, sha256
from eaward.escrow import EscrowPolicy, build_redeem_script, p2sh_address
from eaward.metadata import Role, encode_metadata
from eaward.msgauth import sign_message, verify_message
from eaward.tx import (
    Script,
    Transaction,
    TxInput,
    TxOutput,
    Txid,
    build_nulldata_script,
    compute_txid,
    push_data,
    script_to_asm,
)


def step(title: str):
    print(f"\n== {title} ==")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", default="workflow demo", help="key derivation tag")
    parser.add_argument("--seat", default="London")
    parser.add_argument("--jurisdiction", default="England",
                        choices=["England", "Switzerland", "other"])
    args = parser.parse_args()

    step("1. key material (deterministic from --seed)")
    keys = {role: PrivateKey.from_bytes(sha256(f"{args.seed}/{role.value}".encode()))
            for role in Role}
    for role, key in keys.items():
        address = pubkey_to_address(key.public_key(), TESTNET)
        print(f"{role.name:<10} {key.public_key().hex()}  {address}")

    step("2. arbitration agreement")
    policy = EscrowPolicy(2, tuple(k.public_key() for k in keys.values()))
    parties = tuple(
        Party(role, f"Party {role.value}", f"Name{role.value}",
              pubkey_to_address(keys[role].public_key(), TESTNET))
        for role in Role)
    agreement = ArbitrationAgreement(
        parties=parties, seat=args.seat, seat_jurisdiction=args.jurisdiction,
        reasoned_award_opt_out=True, policy=policy)
    review = validate_agreement(agreement)
    print(f"violations: {list(review.violations)}")
    print(f"warnings:   {list(review.warnings)}")
    if not review.ok:
        return 2

    step("3. escrow deposit address")
    redeem = build_redeem_script(policy)
    print(f"redeem asm: {script_to_asm(redeem)}")
    print(f"deposit:    {p2sh_address(redeem, TESTNET)}")

    step("4. arbitrator attestation")
    line = " ".join(
        f"{r.value}-Name{r.value}-{agreement.party(r).address.text[-5:]}"
        for r in Role) + f" {args.seat}"
    attestation = sign_message(keys[Role.ARBITRATOR], line, TESTNET)
    print(f"message:   {attestation.message}")
    print(f"signature: {attestation.signature_b64}")
    print(f"verifies:  {verify_message(attestation.address, attestation.signature_b64, attestation.message)}")

    step("5. metadata line and award transaction")
    meta = metadata_for_agreement(agreement, attestation.signature_b64)
    payload = encode_metadata(meta)
    print(f"payload ({len(payload)} bytes): {meta.text()}")
    script_sig = Script(
        push_data(b"")
        + push_data(sha256(b"placeholder spend sig 1") + b"\x01")
        + push_data(sha256(b"placeholder spend sig 2") + b"\x01")
        + push_data(redeem.raw))
    tx = Transaction(
        2,
        (TxInput(Txid(hash256(f"{args.seed}/funding".encode())), 0, script_sig),),
        (TxOutput(500_000, build_nulldata_script(payload)),))
    print(f"txid: {compute_txid(tx)}")

    step("6. fixture-mode broadcast and retrieval")
    with tempfile.TemporaryDirectory() as tmp:
        source = ChainSource("fixture", TESTNET, fixture_root=Path(tmp))
        txid = broadcast(source, tx.to_hex())
        fetched = get_transaction(source, txid)
        print(f"broadcast accepted, round-trips: {fetched == tx}")
        (Path(tmp) / f"{txid.hex()}.status").write_text(json.dumps({
            "blockTime": "2026-08-09T00:00:00Z", "confirmations": 6,
            "blockHash": sha256(b"demo block").hex()}))
        status = get_tx_status(source, txid)

        step("7. linkage and certificate")
        report = match_transaction(agreement, tx)
        print(f"linkage overall: {report.overall}")
        certificate = certify(agreement, tx, status, attestation.signature_b64,
                              "Workflow Demo Certifier")
        print(certificate.statement)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
