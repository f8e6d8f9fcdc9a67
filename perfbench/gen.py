"""Seeded input generator for the three workloads.

`generate(workload, seed, root)` writes every input file under `root` (chain
fixtures, agreements, award documents, key files) and returns the op list.
Each op is a dict:

    kind    which operation the runner performs ("verify", "forensic", ...)
    args    the inputs handed to the program, and nothing else
    expect  the right answer, known from how the input was built
    defect  optional: the documented wrong answer of a known defect

Expectations come from `refcrypto`, never from the package under test. The
same seed gives byte-identical output. Each workload's op mix is a fixed
composition block, repeated and shuffled by the seed, so every seed carries
the same shares and the same size ladders and only the bytes differ.
"""

from __future__ import annotations

import base64
import json
import random
from pathlib import Path

from refcrypto import (
    N,
    TESTNET_P2PKH,
    TESTNET_P2SH,
    b58check,
    btc_short,
    btc_text,
    compressed_pubkey,
    hash160,
    message_hash,
    multisig_script,
    nulldata_script,
    p2pkh_script,
    p2sh_script,
    push,
    serialize_tx,
    sha256,
    sign_recoverable,
    txid_hex,
)

WORKLOADS = ("attest", "forensics", "cli")

# Known defects of the seed code (ROADMAP item 2). They stay in the mix at a
# small fixed share; `defect` records the wrong answer the seed gives.
DEFECT_TRUE = {"value": True}          # P2SH-version address verifies "true"
DEFECT_VALUE_ERROR = {"raises": "ValueError"}   # raw ValueError escapes
DEFECT_CLI_TRACEBACK = {"exit": 1, "traceback": True}

# Per-block op counts. attest: 60% verify (a quarter negative), 25% sign,
# 15% certify.
ATTEST_BLOCK = {
    "verify_ok": 90, "verify_tampered": 9, "verify_other_party": 9,
    "verify_malformed": 8, "verify_not_p2pkh": 4,
    "sign": 50,
    "certify_ok": 24, "certify_bad_attestation": 2, "certify_unconfirmed": 1,
    "certify_seat_mismatch": 1, "certify_nonhex_pubkey": 1, "certify_bad_blocktime": 1,
}
CLI_BLOCK = {
    "verify_ok": 10, "verify_tampered": 2, "sign": 8, "decode": 6, "anchor_ok": 4,
    "anchor_mismatch": 1, "certify_ok": 4, "bad_signature": 1,
    "bad_agreement_missing": 1, "bad_agreement_nonhex": 1,
    "bad_status_json": 1, "bad_status_blocktime": 1,
}
FORENSIC_RECORDS = 64       # one composition block of evidence records
FORENSIC_DUPLICATES = 16    # records whose document is already stored
FORENSIC_MISMATCHES = 4     # records whose transaction anchors another hash
KEY_COUNT = 48              # parties' keys; every signer and multisig key is one of them

NAMES = ["Acme", "Baker", "Cole", "Dunn", "Egan", "Fox", "Gray", "Hale", "Ives",
         "Jade", "Kerr", "Lowe", "Moss", "Nash", "Orr", "Pike", "Quin", "Reed",
         "Shaw", "Tate", "Vale", "Webb", "Yost", "Zane"]
SEATS = ["London", "Zurich", "Geneva", "Basel", "Bern", "Leeds", "Paris"]
WORDS = ["award", "claim", "escrow", "seat", "tribunal", "release", "deposit",
         "party", "ruling", "costs", "interest", "funds", "notice", "order",
         "wallet", "record", "evidence", "hearing", "stay", "appeal", "€", "ü"]
BLOCK_TIME = "2019-03-28T15:46:53Z"
CERTIFIER = "Expert Witness"


def ladder(count: int, low: float, high: float) -> list[int]:
    """count values spaced geometrically from low to high, inclusive."""
    return [round(low * (high / low) ** (i / (count - 1))) for i in range(count)]


class Generator:
    def __init__(self, seed: int, root: Path):
        self.rng = random.Random(seed)
        self.root = root
        self.chain = root / "chain"
        self.chain.mkdir(parents=True, exist_ok=True)
        self.keys = []
        for _ in range(KEY_COUNT):
            d = self.rng.randrange(1, N)
            pub = compressed_pubkey(d)
            self.keys.append((d, pub, b58check(TESTNET_P2PKH, hash160(pub))))

    # -- small helpers ----------------------------------------------------

    def write(self, rel: str, data: bytes | str) -> str:
        path = self.root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        if isinstance(data, str):
            data = data.encode()
        path.write_bytes(data)
        return str(path)

    def message(self) -> str:
        words = [self.rng.choice(WORDS) for _ in range(self.rng.randrange(2, 30))]
        return " ".join(words) + f" #{self.rng.randrange(10**6)}"

    def sign(self, d: int, message: str) -> str:
        return base64.b64encode(sign_recoverable(d, message_hash(message))).decode()

    def placeholder_sig(self) -> bytes:
        """A DER-shaped spend signature plus sighash byte; never checked."""
        body = b"\x02\x20" + self.rng.randbytes(32) + b"\x02\x20" + self.rng.randbytes(32)
        return b"\x30\x44" + body + b"\x01"

    def put_tx(self, raw: bytes, status: dict | str | None) -> str:
        txid = txid_hex(raw)
        self.write(f"chain/{txid}.hex", raw.hex() + "\n")
        if status is not None:
            text = status if isinstance(status, str) else json.dumps(status)
            self.write(f"chain/{txid}.status", text + "\n")
        return txid

    def confirmed(self) -> dict:
        return {"blockTime": BLOCK_TIME, "confirmations": self.rng.randrange(1, 5000),
                "blockHash": self.rng.randbytes(32).hex()}

    # -- signed messages --------------------------------------------------

    def verify_case(self, variant: str) -> dict:
        d, pub, addr = self.rng.choice(self.keys)
        msg = self.message()
        sig = self.sign(d, msg)
        op = {"kind": "verify", "args": {"address": addr, "signature": sig, "message": msg},
              "expect": {"value": True}}
        if variant == "tampered":
            op["args"]["message"] = msg + "."
            op["expect"] = {"value": False}
        elif variant == "other_party":
            other = self.rng.choice([k for k in self.keys if k[2] != addr])
            op["args"]["address"] = other[2]
            op["expect"] = {"value": False}
        elif variant == "malformed":
            cut = self.rng.randrange(2)
            op["args"]["signature"] = sig[:40] + "*" + sig[41:] if cut else sig[:-4]
            op["expect"] = {"error": True}
        elif variant == "not_p2pkh":
            # Same key hash under the P2SH version byte: a message signature
            # proves control of a P2PKH key only, so the answer is false.
            op["args"]["address"] = b58check(TESTNET_P2SH, hash160(pub))
            op["expect"] = {"value": False, "or_error": True}
            op["defect"] = DEFECT_TRUE
        return op

    def sign_case(self) -> dict:
        index = self.rng.randrange(len(self.keys))
        d, _, addr = self.keys[index]
        msg = self.message()
        key_file = self.write(f"keys/{index}.hex", d.to_bytes(32, "big").hex() + "\n")
        return {"kind": "sign",
                "args": {"key": d.to_bytes(32, "big").hex(), "key_file": key_file,
                         "message": msg},
                "expect": {"address": addr, "signature": self.sign(d, msg)}}

    # -- agreements and certificates ----------------------------------------

    def certify_case(self, variant: str, n: int) -> dict:
        picks = self.rng.sample(range(len(self.keys)), 3)
        parties = [self.keys[i] for i in picks]
        names = self.rng.sample(NAMES, 3)
        seat = self.rng.choice(SEATS)
        tokens = [f"{role}-{name}-{addr[-5:]}"
                  for role, name, (_, _, addr) in zip("ACR", names, parties)]
        line = " ".join(tokens + [seat])
        arb_d = parties[0][0]
        signature = self.sign(arb_d, line)
        payload = f"{line} {signature[-28:]}".encode()
        m = self.rng.randrange(1, 4)
        redeem = multisig_script(m, [p[1] for p in parties])
        script_sig = push(b"") + b"".join(push(self.placeholder_sig()) for _ in range(m)) \
            + push(redeem)
        meta_value = self.rng.randrange(1, 10**7)
        outputs = [(meta_value, nulldata_script(payload))]
        for _ in range(self.rng.randrange(0, 3)):
            outputs.append((self.rng.randrange(1, 10**8), p2pkh_script(self.rng.randbytes(20))))
        raw = serialize_tx(2, [(self.rng.randbytes(32), 0, script_sig, 0xFFFFFFFE)],
                           outputs, 0)
        status = self.confirmed()
        if variant == "unconfirmed":
            status = {"confirmations": 0}
        elif variant == "bad_blocktime":
            status = {"blockTime": "28/03/2019 15:46", "confirmations": 3}
        elif variant == "bad_status_json":
            status = '{"blockTime": "2019-03-28T15:46:53Z", "confirmations": '
        txid = self.put_tx(raw, status)

        pubkeys = [p[1].hex() for p in parties]
        if variant == "nonhex_pubkey":
            pubkeys[1] = "zz" + pubkeys[1][2:]
        agreement = {
            "parties": [{"role": role, "legalName": f"{name} Ltd", "displayName": name,
                         "address": addr}
                        for role, name, (_, _, addr) in zip("ACR", names, parties)],
            "seat": seat if variant != "seat_mismatch" else "Elsewhere",
            "seatJurisdiction": self.rng.choice(["England", "Switzerland"]),
            "reasonedAwardOptOut": True,
            "policy": {"m": m, "pubkeys": pubkeys},
            "agreementTextHash": sha256(line.encode()).hex(),
        }
        if variant == "missing_field":
            del agreement["seat"]
        agreement_file = self.write(f"agreements/{n}.json", json.dumps(agreement, indent=2))
        attestation = signature
        if variant == "bad_attestation":
            attestation = self.sign(arb_d, line + " (draft)")

        op = {"kind": "certify",
              "args": {"agreement_file": agreement_file, "txid": txid,
                       "attestation": attestation, "message": line,
                       "arbitrator": parties[0][2], "certifier": CERTIFIER}}
        if variant == "ok":
            total = sum(v for v, _ in outputs)
            op["expect"] = {"cert": {
                "txid": txid,
                "amount": f"The transaction amount was {btc_short(total)} BTC",
                "relates": [f'"{tok}" relates to {addr}'
                            for tok, (_, _, addr) in zip(tokens, parties)],
                "blockTime": BLOCK_TIME,
                "confirmations": status["confirmations"],
                "attestedMessage": line,
            }}
        else:
            op["expect"] = {"error": True}
        if variant in ("nonhex_pubkey", "bad_blocktime"):
            op["defect"] = DEFECT_VALUE_ERROR
        return op

    # -- forensic evidence records ----------------------------------------

    def forensic_records(self, blocks: int = 1) -> list[dict]:
        """`blocks` composition blocks of FORENSIC_RECORDS records each, over
        fixed ladders of transaction and document size; the seed picks the
        pairing, keys and bytes.

        Every block has transactions of its own. Its documents are the base
        documents, written once, behind a prefix of the block's own, so no
        content repeats between blocks while the disk holds only the base
        set: the runner writes such a document to `doc_file` from
        `doc_from` (base file, prefix hex) before the op, untimed. Block 0's
        prefix is empty and its records read the base files themselves."""
        unique = FORENSIC_RECORDS - FORENSIC_DUPLICATES
        sizes = ladder(unique, 1024, 1 << 20)
        self.rng.shuffle(sizes)
        base = [(self.write(f"docs/{j}.bin", data), data)
                for j, data in enumerate(self.rng.randbytes(n) for n in sizes)]
        current = str(self.root / "docs" / "current.bin")
        records = []
        for block in range(blocks):
            prefix = f"copy {block}:{self.rng.randbytes(8).hex()}\n".encode() if block else b""
            docs = []
            for path, data in base:
                doc = {"doc_file": path}
                if prefix:
                    doc = {"doc_file": current, "doc_from": [path, prefix.hex()]}
                docs.append((doc, sha256(prefix + data)))
            records += self.forensic_block(docs)
        return records

    def forensic_block(self, docs: list[tuple[dict, bytes]]) -> list[dict]:
        """One block of records; docs: (document args, digest) of the block's
        unique documents, each used once and some again as duplicates."""
        count = FORENSIC_RECORDS
        n_in = ladder(count, 1, 100)
        n_out = ladder(count, 1, 100)
        self.rng.shuffle(n_in)
        self.rng.shuffle(n_out)
        unused = docs[:]
        self.rng.shuffle(unused)
        order = list(range(1, count))  # record 0 always brings a new document
        self.rng.shuffle(order)
        dup_slots = set(order[:FORENSIC_DUPLICATES])
        mismatch_slots = set(order[FORENSIC_DUPLICATES:FORENSIC_DUPLICATES
                                   + FORENSIC_MISMATCHES])
        used = []
        records = []
        for i in range(count):
            if i in dup_slots:
                doc, digest = self.rng.choice(used)
            else:
                doc, digest = unused.pop()
                used.append((doc, digest))
            records.append(self.forensic_record(
                n_in[i], n_out[i], 1 + i % 15, doc, digest, mismatch=i in mismatch_slots))
        return records

    def forensic_record(self, n_in, n_out, n_keys, doc, digest, mismatch) -> dict:
        rng = self.rng
        m = rng.randrange(1, n_keys + 1)
        keys = rng.sample(self.keys, n_keys)
        redeem = multisig_script(m, [k[1] for k in keys])
        inputs = [(rng.randbytes(32), rng.randrange(4),
                   push(b"") + b"".join(push(self.placeholder_sig()) for _ in range(m))
                   + push(redeem), 0xFFFFFFFF)]
        for _ in range(n_in - 1):  # further 2-of-3 escrow spends
            other = multisig_script(2, [k[1] for k in rng.sample(self.keys, 3)])
            inputs.append((rng.randbytes(32), rng.randrange(4),
                           push(b"") + push(self.placeholder_sig())
                           + push(self.placeholder_sig()) + push(other), 0xFFFFFFFF))
        anchored = rng.randbytes(32) if mismatch else digest
        anchor_at = rng.randrange(n_out)
        outputs, vout = [], []
        for n in range(n_out):
            if n == anchor_at:
                outputs.append((0, nulldata_script(anchored)))
                vout.append([btc_text(0), "nulldata", None])
                continue
            value = rng.randrange(546, 10**9)
            h = rng.randbytes(20)
            if rng.random() < 0.6:
                outputs.append((value, p2pkh_script(h)))
                vout.append([btc_text(value), "p2pkh", [b58check(TESTNET_P2PKH, h)]])
            else:
                outputs.append((value, p2sh_script(h)))
                vout.append([btc_text(value), "p2sh", [b58check(TESTNET_P2SH, h)]])
        raw = serialize_tx(2, inputs, outputs, rng.randrange(500_000))
        txid = self.put_tx(raw, None)  # forensics reads no status
        return {
            "kind": "forensic",
            "args": {"txid": txid, "m": m, "pubkeys": [k[1].hex() for k in keys], **doc},
            "expect": {
                "txid": txid, "size": len(raw), "n_in": n_in, "vout": vout,
                "redeem": {"m": m, "addresses": [k[2] for k in keys]},
                "p2sh": b58check(TESTNET_P2SH, hash160(redeem)),
                "anchor": None if mismatch else anchor_at,
                "content_id": digest.hex(),
            },
        }


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def expand(block: dict, repeats: int, rng: random.Random) -> list[str]:
    """The block's variants, each repeat shuffled on its own, so that every
    run, however far it gets through the pool, sees close to the block's
    shares."""
    variants = []
    for _ in range(repeats):
        one = [name for name, count in block.items() for _ in range(count)]
        rng.shuffle(one)
        variants += one
    return variants


def attest_ops(gen: Generator, repeats: int) -> list[dict]:
    ops = []
    for n, variant in enumerate(expand(ATTEST_BLOCK, repeats, gen.rng)):
        family, _, detail = variant.partition("_")
        if family == "verify":
            ops.append(gen.verify_case(detail))
        elif family == "sign":
            ops.append(gen.sign_case())
        else:
            ops.append(gen.certify_case(detail, n))
    return ops


def cli_ops(gen: Generator, repeats: int) -> list[dict]:
    """Argument vectors for `python -m eaward.cli`, with expected exit code
    and output. `argv` excludes the interpreter and module prefix."""
    records = gen.forensic_records()
    store_free = [r for r in records if r["expect"]["anchor"] is not None]
    mismatched = [r for r in records if r["expect"]["anchor"] is None]
    root = str(gen.chain)
    ops = []
    for n, variant in enumerate(expand(CLI_BLOCK, repeats, gen.rng)):
        if variant in ("verify_ok", "verify_tampered", "bad_signature"):
            case = gen.verify_case({"verify_ok": "ok", "verify_tampered": "tampered",
                                    "bad_signature": "malformed"}[variant])
            a = case["args"]
            argv = ["msg", "verify", a["address"], a["signature"], a["message"]]
            expect = ({"exit": 2} if variant == "bad_signature" else
                      {"exit": 0, "stdout": "true\n"} if case["expect"]["value"] else
                      {"exit": 1, "stdout": "false\n"})
            ops.append({"kind": "verify", "argv": argv, "expect": expect})
        elif variant == "sign":
            case = gen.sign_case()
            ops.append({"kind": "sign",
                        "argv": ["msg", "sign", case["args"]["key_file"],
                                 case["args"]["message"]],
                        "expect": {"exit": 0,
                                   "stdout": case["expect"]["signature"] + "\n"}})
        elif variant == "decode":
            rec = gen.rng.choice(records)
            e = rec["expect"]
            ops.append({"kind": "decode",
                        "argv": ["--fixture-root", root, "tx", "decode", e["txid"]],
                        "expect": {"exit": 0, "report": {k: e[k] for k in
                                                         ("txid", "size", "n_in", "vout")}}})
        elif variant.startswith("anchor"):
            rec = gen.rng.choice(store_free if variant == "anchor_ok" else mismatched)
            e = rec["expect"]
            argv = ["--fixture-root", root, "anchor", "verify", rec["args"]["doc_file"],
                    e["txid"]]
            expect = ({"exit": 0, "lines": [f"docHash: {e['content_id']}",
                                            f"txid: {e['txid']}", f"vout: {e['anchor']}"]}
                      if variant == "anchor_ok" else {"exit": 1, "stdout": "false\n"})
            ops.append({"kind": "anchor", "argv": argv, "expect": expect})
        else:
            detail = {"certify_ok": "ok", "bad_agreement_missing": "missing_field",
                      "bad_agreement_nonhex": "nonhex_pubkey",
                      "bad_status_json": "bad_status_json",
                      "bad_status_blocktime": "bad_blocktime"}[variant]
            case = gen.certify_case(detail, n)
            a = case["args"]
            argv = ["--json", "--fixture-root", root, "certify", a["agreement_file"],
                    a["txid"], "--attestation", a["attestation"], "--certifier", CERTIFIER]
            op = {"kind": "certify", "argv": argv,
                  "expect": ({"exit": 0, "cert": case["expect"]["cert"]}
                             if detail == "ok" else {"exit": 2})}
            if "defect" in case:
                op["defect"] = DEFECT_CLI_TRACEBACK
            ops.append(op)
    return ops


def generate(workload: str, seed: int, root: Path, size: int) -> list[dict]:
    """Write the inputs of one run under root and return its ops: whole
    composition blocks, at least size ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    gen = Generator(seed * 7919 + WORKLOADS.index(workload), Path(root))
    blocks = max(1, -(-size // block_size(workload)))
    if workload == "attest":
        return attest_ops(gen, blocks)
    if workload == "forensics":
        return gen.forensic_records(blocks)
    return cli_ops(gen, blocks)


def block_size(workload: str) -> int:
    """Ops in one composition block: every block carries the workload's mix."""
    return {"attest": sum(ATTEST_BLOCK.values()), "forensics": FORENSIC_RECORDS,
            "cli": sum(CLI_BLOCK.values())}[workload]


def first_of_each_kind(ops: list[dict]) -> list[dict]:
    """One op per kind whose expected answer is a success: the warm-up set."""
    seen = {}
    for op in ops:
        e = op["expect"]
        if e.get("error") or e.get("value") is False or e.get("exit", 0) != 0 \
                or "defect" in op or op["kind"] in seen:
            continue
        if op["kind"] == "forensic" and e["anchor"] is None:
            continue
        seen[op["kind"]] = op
    return list(seen.values())
