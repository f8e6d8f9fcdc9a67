"""One synthetic 2-of-3 escrow award, as the raw artifacts a court receives.

It imports no eaward module: it builds from the public specifications
(secp256k1 with RFC 6979, the signed-message digest, base58check, the legacy
transaction format) through perfbench/refcrypto.py, so the code under test
never makes its own input. The spend's input signatures are placeholders,
hashes where the signatures go, until ROADMAP item 7 signs the spend.
Load this file by path, as tests/conftest.py and scripts/run_workflow.py do.
"""

from __future__ import annotations

import base64
import importlib.util
import json
from collections import namedtuple
from pathlib import Path


def load(path: Path):
    """The Python file at path, loaded as a module of its own."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


refcrypto = load(Path(__file__).resolve().parents[1] / "perfbench" / "refcrypto.py")

ROLES = "ACR"  # arbitrator, claimant, respondent: the key order of the policy

# agreement: the agreement JSON document; spend_hex, txid: the award
# transaction; status: its block status, as a fixture .status file holds it;
# line, signature: what the arbitrator signed, and the base64 signature;
# scalars: each party's private key, by role letter.
World = namedtuple("World", "agreement spend_hex txid status line signature scalars")


def build_world(seed: str = "synthetic escrow", seat: str = "TheHague",
                jurisdiction: str = "other") -> World:
    rc = refcrypto
    scalars = {r: int.from_bytes(rc.sha256(f"{seed} {r}".encode()), "big") for r in ROLES}
    pubkeys = [rc.compressed_pubkey(scalars[r]) for r in ROLES]
    addresses = [rc.b58check(rc.TESTNET_P2PKH, rc.hash160(k)) for k in pubkeys]
    agreement = {
        "parties": [{"role": r, "legalName": f"Party {r}", "displayName": f"Name{r}",
                     "address": a} for r, a in zip(ROLES, addresses)],
        "seat": seat,
        "seatJurisdiction": jurisdiction,
        "reasonedAwardOptOut": True,
        "policy": {"m": 2, "pubkeys": [k.hex() for k in pubkeys]},
        "agreementTextHash": None,
    }
    line = " ".join(f"{r}-Name{r}-{a[-5:]}" for r, a in zip(ROLES, addresses)) + f" {seat}"
    signature = base64.b64encode(
        rc.sign_recoverable(scalars["A"], rc.message_hash(line))).decode()
    # The award line: the signed line and the signature's last 28 characters.
    payload = f"{line} {signature[-28:]}".encode()

    placeholders = [rc.sha256(f"{seed} placeholder sig {i}".encode()) + b"\x01" for i in (1, 2)]
    script_sig = b"".join(map(rc.push, [b"", *placeholders, rc.multisig_script(2, pubkeys)]))
    raw = rc.serialize_tx(
        2, [(rc.hash256(f"{seed} funding".encode()), 1, script_sig, 0xFFFFFFFF)],
        [(0, rc.nulldata_script(payload)), (500_000, rc.p2pkh_script(bytes(20)))], 0)
    status = {"blockTime": "2020-07-01T12:00:00Z", "confirmations": 42,
              "blockHash": rc.sha256(f"{seed} block".encode()).hex()}
    return World(agreement, raw.hex(), rc.txid_hex(raw), status, line, signature, scalars)


def file_world(world: World, root: Path) -> Path:
    """Write world into the directory root as a court's files: its spend and
    status as the fixture chain's <txid>.hex and <txid>.status, and its
    agreement as agreement.json, whose path is returned."""
    (root / f"{world.txid}.hex").write_text(world.spend_hex + "\n")
    (root / f"{world.txid}.status").write_text(json.dumps(world.status))
    agreement = root / "agreement.json"
    agreement.write_text(json.dumps(world.agreement, indent=2))
    return agreement
