#!/usr/bin/env python3
"""Regenerate the frozen offline fixtures under tests/fixtures/.

The demo transaction mirrors the published worked example: a single escrow
input whose scriptSig reveals the 2-of-3 redeem script as its final push,
and a single 80-byte OP_RETURN output carrying the award metadata line,
0.005 BTC. The original testnet transaction's bytes are not recoverable
offline (its spend signatures cannot be recreated without the escrow
private keys), so the input side uses deterministic placeholder signatures
from throwaway keys; everything observable in the example - redeem script,
addresses, payload, amount, block time - is byte-identical to the
published values.

Running this script is idempotent; it verifies the frozen txid at the end.
"""

import json
import sys
from pathlib import Path

from eaward.crypto import PrivateKey, TESTNET, sha256, hash256, ecdsa_sign_recoverable
from eaward.escrow import EscrowPolicy, build_redeem_script, dump_policy
from eaward.crypto import PublicKey
from eaward.metadata import decode_metadata
from eaward.tx import (
    Script,
    Transaction,
    TxInput,
    TxOutput,
    Txid,
    build_nulldata_script,
    compute_txid,
    push_data,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURE_ROOT = REPO_ROOT / "tests" / "fixtures"

ESCROW_PUBKEYS = [
    "0279aac3e06ee2e54ab5952a75fe742883d5ecaa2da33dfeb60a6940a435ed5399",
    "02f90212cad84ab0875ef34d17c09e5fecff34f25786f99ddb5f4bdca5c599707b",
    "03d3009499b501c7be0f4f7d3d8f45af4d2dd9104070e7dfedb5e57949a10a09af",
]

METADATA_HEX = (
    "412d4a6f686e536d6974682d4b6b6a4a5820432d41636d652d665a4e384c20522d42616b"
    "65722d4e42537648204c6f6e646f6e20436661376a6168445444566a5a774b55706b3777"
    "317970786738733d"
)

AMOUNT_SAT = 500_000  # 0.005 BTC
BLOCK_TIME = "2019-03-28T15:46:53Z"
CONFIRMATIONS = 1000

AWARD_TEXT = (
    "FINAL AWARD\n"
    "\n"
    "Case 2019-001, seat London.\n"
    "The claim succeeds. The respondent shall bear the deposited funds,\n"
    "released to the claimant from the escrow account. No reasons are\n"
    "stated, per the parties' opt-out.\n"
)

# Frozen after the first deterministic build; the script refuses to drift.
EXPECTED_TXID = "98cef737a188c6a2f6645b2af052ca38d4b40b42f4032454826e7a98a5c5806e"


def der_signature(r: int, s: int) -> bytes:
    def enc_int(v: int) -> bytes:
        raw = v.to_bytes((v.bit_length() + 7) // 8 or 1, "big")
        if raw[0] & 0x80:
            raw = b"\x00" + raw
        return b"\x02" + bytes([len(raw)]) + raw

    body = enc_int(r) + enc_int(s)
    return b"\x30" + bytes([len(body)]) + body


def placeholder_spend_sig(tag: str) -> bytes:
    """Format-valid DER signature + SIGHASH_ALL from a throwaway key."""
    key = PrivateKey.from_bytes(sha256(f"demo spend key {tag}".encode()))
    sig = ecdsa_sign_recoverable(key, hash256(f"demo spend digest {tag}".encode()))
    return der_signature(sig.r, sig.s) + b"\x01"


def build_transaction() -> Transaction:
    policy = EscrowPolicy(2, tuple(PublicKey.from_hex(k) for k in ESCROW_PUBKEYS))
    redeem = build_redeem_script(policy)
    script_sig = Script(
        push_data(b"")
        + push_data(placeholder_spend_sig("one"))
        + push_data(placeholder_spend_sig("two"))
        + push_data(redeem.raw)
    )
    funding = Txid(hash256(b"demo funding outpoint"))
    return Transaction(
        version=2,
        inputs=(TxInput(funding, 0, script_sig, sequence=0xFFFFFFFE),),
        outputs=(TxOutput(AMOUNT_SAT, build_nulldata_script(bytes.fromhex(METADATA_HEX))),),
        locktime=0,
    )


def main() -> int:
    decode_metadata(bytes.fromhex(METADATA_HEX))  # sanity: payload parses

    tx = build_transaction()
    txid = compute_txid(tx)

    chain_dir = FIXTURE_ROOT / "chain"
    chain_dir.mkdir(parents=True, exist_ok=True)
    (chain_dir / f"{txid.hex()}.hex").write_text(tx.to_hex() + "\n")
    (chain_dir / f"{txid.hex()}.status").write_text(json.dumps({
        "blockTime": BLOCK_TIME,
        "confirmations": CONFIRMATIONS,
        "blockHash": sha256(b"demo block hash").hex(),
    }, indent=2) + "\n")

    policy = EscrowPolicy(2, tuple(PublicKey.from_hex(k) for k in ESCROW_PUBKEYS))
    (FIXTURE_ROOT / "policy.json").write_text(dump_policy(policy, TESTNET) + "\n")

    agreement = {
        "parties": [
            {"role": "A", "legalName": "John Smith", "displayName": "JohnSmith",
             "address": "mzV1dsMdDjtLSfRa2rPrE2oJpRtynKkjJX"},
            {"role": "C", "legalName": "Acme", "displayName": "Acme",
             "address": "mpGZniUmoCemQzRbazvdgzGkmjUQ3fZN8L"},
            {"role": "R", "legalName": "Baker", "displayName": "Baker",
             "address": "n2dSPmt5cv2hFNfQqoZtvRJ6bZmypNBSvH"},
        ],
        "seat": "London",
        "seatJurisdiction": "England",
        "reasonedAwardOptOut": True,
        "policy": {"m": 2, "pubkeys": ESCROW_PUBKEYS},
        "agreementTextHash": None,
    }
    (FIXTURE_ROOT / "agreement.json").write_text(json.dumps(agreement, indent=2) + "\n")
    (FIXTURE_ROOT / "award.txt").write_bytes(AWARD_TEXT.encode())
    # A throwaway signing key, for the README's `msg sign` line.
    (FIXTURE_ROOT / "signer.key").write_text(sha256(b"demo signer key").hex() + "\n")

    print(f"demo txid: {txid.hex()}")
    print(f"tx size:   {len(tx.serialize())} bytes")
    print(f"fixtures:  {FIXTURE_ROOT}")
    if EXPECTED_TXID != txid.hex():
        print("NOTE: EXPECTED_TXID constant does not match; update it if the "
              "fixture format changed intentionally.")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
