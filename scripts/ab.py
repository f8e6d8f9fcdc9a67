#!/usr/bin/env python3
"""Time one layer of eaward at a git revision against the working tree, and
check that both answer alike.

    python scripts/ab.py REF --layer ec [--rounds 30] [--count 30]
    python scripts/ab.py REF --layer process [--rounds 30]

`src/eaward` at REF is extracted with `git archive` into a temporary
directory. Each round runs every case once per side and alternates which
side goes first. It prints, per case, the median with the quartiles of the
rounds, and the rounds each side was faster in, then the same as one JSON
line: {"layer", "ref", "commit", "python", "rounds", "unit", "cases": {case:
{"ref": {"median", "quartiles"}, "tree": {...}, "tree_faster_rounds",
"change"}}}, with "count" for ec. It exits 1 if the sides answer
differently.

ec: the secp256k1 entry points, in one interpreter. REF's package is
imported as `eaward_ref` (eaward's own imports are all relative), beside the
working tree's. Both sides get the same inputs: `count` random keys, digests
and messages from a fixed seed. Both sides' tables are built before the
first round. Microseconds per call.

process: each command as a fresh `python -m eaward.cli` child of REF's
package and of a copy of the working tree's, with and without -S, and with
bytecode compiled from source (PYTHONDONTWRITEBYTECODE=1) or read from a
PYTHONPYCACHEPREFIX of each side's own, which an untimed first round warms.
Every child's exit code, stdout and stderr must be the same on both sides,
with certify's issuedAt masked.
Milliseconds per process, wall clock from its start to its exit.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def extract(ref: str, into: str, package: str) -> str:
    """The commit ref names. src/eaward at it is extracted into `into` as
    the package named `package`."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit, "src/eaward"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # The "data" filter refuses links and paths out of the directory.
        tar.extractall(into, filter="data")
    shutil.move(os.path.join(into, "src", "eaward"), os.path.join(into, package))
    return commit


# ---------------------------------------------------------------------------
# ec: the secp256k1 entry points in one interpreter
# ---------------------------------------------------------------------------

def cases(crypto, msgauth, scalars, digests, messages):
    """name -> (function, argument tuples, answer -> comparable) for one side."""
    keys = [crypto.PrivateKey(k) for k in scalars]
    signed = [msgauth.sign_message(key, m, crypto.TESTNET) for key, m in zip(keys, messages)]
    sigs = [crypto.ecdsa_sign_recoverable(key, d) for key, d in zip(keys, digests)]
    return {
        "ecdsa_recover": (crypto.ecdsa_recover, list(zip(sigs, digests)), lambda key: key.data),
        "_mul_g": (crypto._mul_g, [(k,) for k in scalars], lambda point: point),
        "sign_message": (msgauth.sign_message, [(key, m, crypto.TESTNET) for key, m in zip(keys, messages)],
                         lambda sm: sm.signature_b64),
        "verify_message": (msgauth.verify_message,
                           [(sm.address, sm.signature_b64, sm.message) for sm in signed], bool),
    }


def mean_us(function, args) -> float:
    start = time.perf_counter_ns()
    for a in args:
        function(*a)
    return (time.perf_counter_ns() - start) / len(args) / 1000


def ec_layer(ref: str, rounds: int, count: int, tmp: str) -> tuple[str, dict, dict]:
    """(commit, times, extra result fields) of the EC layer."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from eaward import crypto, msgauth

    rng = random.Random(1)
    scalars = [rng.randrange(1, crypto.CURVE_ORDER) for _ in range(count)]
    digests = [rng.randbytes(32) for _ in range(count)]
    messages = [f"ec_ab {rng.getrandbits(64):016x}" for _ in range(count)]

    commit = extract(ref, tmp, "eaward_ref")
    sys.path.insert(0, tmp)
    ref_crypto = importlib.import_module("eaward_ref.crypto")
    ref_msgauth = importlib.import_module("eaward_ref.msgauth")
    sides = {"ref": cases(ref_crypto, ref_msgauth, scalars, digests, messages),
             "tree": cases(crypto, msgauth, scalars, digests, messages)}
    for name in sides["tree"]:  # builds the tables and checks the answers
        answers = {}
        for side, side_cases in sides.items():
            function, arg_list, comparable = side_cases[name]
            answers[side] = [comparable(function(*a)) for a in arg_list]
        if answers["ref"] != answers["tree"]:
            raise SystemExit(f"{name}: the working tree answers differently from {ref}")
    times = {side: {name: [] for name in sides[side]} for side in sides}
    for round_ in range(rounds):
        order = ["ref", "tree"] if round_ % 2 else ["tree", "ref"]
        for name in sides["tree"]:
            for side in order:
                function, arg_list, _ = sides[side][name]
                times[side][name].append(mean_us(function, arg_list))
    return commit, times, {"unit": "us", "count": count}


# ---------------------------------------------------------------------------
# process: each command as a fresh interpreter
# ---------------------------------------------------------------------------

FIXTURES = os.path.join(ROOT, "tests", "fixtures")
DEMO_TXID = "98cef737a188c6a2f6645b2af052ca38d4b40b42f4032454826e7a98a5c5806e"
ADDRESS = "mzV1dsMdDjtLSfRa2rPrE2oJpRtynKkjJX"
SIGNATURE = ("IO0vDf3ZqfRZ8FGGsnzzkMc65YQWIWb2+YqcQ9j/APK2QN1E2TTV/3xPkThhCfa7"
             "jahDTDVjZwKUpk7w1ypxg8s=")
MESSAGE = "A-JohnSmith-KkjJX C-Acme-fZN8L R-Baker-NBSvH London"
ISSUED_AT = re.compile(r'"issuedAt": "[^"]*"')  # when certify ran, not what it found
# mode -> (interpreter flags, bytecode read from a warmed cache)
MODES = {"site source": ((), False), "site cached": ((), True),
         "-S source": (("-S",), False), "-S cached": (("-S",), True)}


def file_anchor(root: str, document: str) -> str:
    """The txid of a transaction, filed under root with a status, whose one
    output is a nulldata script carrying document's SHA-256."""
    with open(document, "rb") as f:
        digest = hashlib.sha256(f.read()).digest()
    raw = (b"\x02\x00\x00\x00\x01" + bytes(36) + b"\x00\xff\xff\xff\xff"  # version, 1 input
           + b"\x01" + bytes(8) + b"\x22\x6a\x20" + digest  # 1 output of 0 sat
           + bytes(4))  # lock time
    txid = hashlib.sha256(hashlib.sha256(raw).digest()).digest()[::-1].hex()
    os.makedirs(root)
    with open(os.path.join(root, f"{txid}.hex"), "w") as f:
        f.write(raw.hex() + "\n")
    with open(os.path.join(root, f"{txid}.status"), "w") as f:
        json.dump({"blockTime": "2019-03-28T15:46:53Z", "confirmations": 6,
                   "blockHash": "bb" * 32}, f)
    return txid


def commands(work: str) -> dict[str, list[str]]:
    """name -> argv of each command timed: the golden attestation, the demo
    transaction, and a transaction filed under work that anchors award.txt."""
    chain, award = os.path.join(FIXTURES, "chain"), os.path.join(FIXTURES, "award.txt")
    anchored = os.path.join(work, "chain")
    return {
        "msg verify": ["msg", "verify", ADDRESS, SIGNATURE, MESSAGE],
        "msg sign": ["msg", "sign", os.path.join(FIXTURES, "signer.key"), MESSAGE],
        "tx decode": ["--fixture-root", chain, "tx", "decode", DEMO_TXID],
        "anchor verify": ["--fixture-root", anchored, "anchor", "verify", award,
                          file_anchor(anchored, award)],
        "certify": ["--json", "--fixture-root", chain, "certify",
                    os.path.join(FIXTURES, "agreement.json"), DEMO_TXID,
                    "--attestation", SIGNATURE, "--certifier", "W"],
    }


def process_layer(ref: str, rounds: int, work: str) -> tuple[str, dict, dict]:
    """(commit, times, extra result fields) of the process layer."""
    commit = extract(ref, os.path.join(work, "ref"), "eaward")
    shutil.copytree(os.path.join(ROOT, "src", "eaward"), os.path.join(work, "tree", "eaward"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")}
    env = {}
    for side in ("ref", "tree"):
        for mode, (_, cached) in MODES.items():
            cache = ({"PYTHONPYCACHEPREFIX": os.path.join(work, f"pycache-{side}")} if cached
                     else {"PYTHONDONTWRITEBYTECODE": "1"})
            env[side, mode] = {**base, "PYTHONPATH": os.path.join(work, side), **cache}
    argvs = commands(work)
    keys = [f"{name} [{mode}]" for name in argvs for mode in MODES]
    times = {side: {key: [] for key in keys} for side in ("ref", "tree")}
    answers = {key: {} for key in keys}
    for round_ in range(rounds + 1):  # round 0 warms the caches, untimed
        order = ["ref", "tree"] if round_ % 2 else ["tree", "ref"]
        for name, argv in argvs.items():
            for mode, (flags, _) in MODES.items():
                key = f"{name} [{mode}]"
                for side in order:
                    start = time.perf_counter_ns()
                    child = subprocess.run([sys.executable, *flags, "-m", "eaward.cli", *argv],
                                           env=env[side, mode], cwd=work, capture_output=True,
                                           text=True)
                    elapsed = (time.perf_counter_ns() - start) / 1e6
                    answer = (child.returncode, ISSUED_AT.sub('"issuedAt": ""', child.stdout),
                              child.stderr)
                    answers[key].setdefault(answer, side)
                    if round_:
                        times[side][key].append(elapsed)
    differences = {key: seen for key, seen in answers.items() if len(seen) > 1}
    for key, seen in differences.items():
        print(f"{key}: the sides answer differently", file=sys.stderr)
        for (code, out, err), side in seen.items():
            print(f"  {side} first answered exit {code}, stdout {out!r}, stderr {err!r}",
                  file=sys.stderr)
    if differences:
        raise SystemExit(1)
    return commit, times, {"unit": "ms"}


# ---------------------------------------------------------------------------

LAYERS = {"ec": "secp256k1 entry points in one interpreter",
          "process": "each command as a fresh python -m eaward.cli"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare the working tree against")
    parser.add_argument("--layer", required=True, choices=LAYERS)
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--count", type=int, default=30, help="inputs per ec function")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error("--rounds must be at least 2, for quartiles")

    with tempfile.TemporaryDirectory() as tmp:
        if args.layer == "ec":
            commit, times, extra = ec_layer(args.ref, args.rounds, args.count, tmp)
        else:
            commit, times, extra = process_layer(args.ref, args.rounds, tmp)

    unit = extra["unit"]
    result = {"layer": args.layer, "ref": args.ref, "commit": commit,
              "python": sys.version.split()[0], "rounds": args.rounds, **extra, "cases": {}}
    print(f"Python {result['python']}; {LAYERS[args.layer]}; {args.ref} ({commit[:12]}) "
          f"against the working tree; {args.rounds} rounds; {unit} per call, median [quartiles]")
    for name, ref in times["ref"].items():
        tree = times["tree"][name]
        row = {side: {"median": round(statistics.median(t), 2),
                      "quartiles": [round(q, 2) for q in statistics.quantiles(t, n=4)[::2]]}
               for side, t in (("ref", ref), ("tree", tree))}
        row["tree_faster_rounds"] = sum(t < r for r, t in zip(ref, tree))
        row["change"] = round(row["tree"]["median"] / row["ref"]["median"] - 1, 4)
        result["cases"][name] = row
        print(f"  {name:28} ref {row['ref']['median']:8.2f} {row['ref']['quartiles']}"
              f"  tree {row['tree']['median']:8.2f} {row['tree']['quartiles']}"
              f"  {row['change']:+.1%}  tree faster in {row['tree_faster_rounds']}/{args.rounds}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
