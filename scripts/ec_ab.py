#!/usr/bin/env python3
"""Time eaward's secp256k1 entry points at a git revision against the
working tree, in one interpreter.

    python scripts/ec_ab.py REF [--rounds 30] [--count 30]

`src/eaward` at REF is extracted with `git archive` into a temporary
directory as the package `eaward_ref` (eaward's own imports are all
relative), beside the working tree's `src/eaward`. Both sides get the same
inputs: `count` random keys, digests and messages from a fixed seed. Each
round times every function once per side, over all inputs, and alternates
which side goes first; both sides' tables are built before the first round,
and every answer must be equal on both sides. It prints, per function, the
median microseconds per call with the quartiles of the rounds, and the
rounds each side was faster in, then the same as one JSON line.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_ref(ref: str, into: str):
    """(commit, crypto, msgauth) of src/eaward at ref, imported as eaward_ref."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{ref}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit, "src/eaward"], cwd=ROOT,
                             check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # The "data" filter refuses links and paths out of the directory.
        tar.extractall(into, filter="data")
    shutil.move(os.path.join(into, "src", "eaward"), os.path.join(into, "eaward_ref"))
    sys.path.insert(0, into)
    return (commit, importlib.import_module("eaward_ref.crypto"),
            importlib.import_module("eaward_ref.msgauth"))


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="git revision to compare the working tree against")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--count", type=int, default=30, help="inputs per function")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from eaward import crypto, msgauth

    rng = random.Random(1)
    scalars = [rng.randrange(1, crypto.CURVE_ORDER) for _ in range(args.count)]
    digests = [rng.randbytes(32) for _ in range(args.count)]
    messages = [f"ec_ab {rng.getrandbits(64):016x}" for _ in range(args.count)]

    with tempfile.TemporaryDirectory() as tmp:
        commit, ref_crypto, ref_msgauth = load_ref(args.ref, tmp)
        sides = {"ref": cases(ref_crypto, ref_msgauth, scalars, digests, messages),
                 "tree": cases(crypto, msgauth, scalars, digests, messages)}
        for name in sides["tree"]:  # builds the tables and checks the answers
            answers = {}
            for side, side_cases in sides.items():
                function, arg_list, comparable = side_cases[name]
                answers[side] = [comparable(function(*a)) for a in arg_list]
            if answers["ref"] != answers["tree"]:
                raise SystemExit(f"{name}: the working tree answers differently from {args.ref}")
        times = {side: {name: [] for name in sides[side]} for side in sides}
        for round_ in range(args.rounds):
            order = ["ref", "tree"] if round_ % 2 else ["tree", "ref"]
            for name in sides["tree"]:
                for side in order:
                    function, arg_list, _ = sides[side][name]
                    times[side][name].append(mean_us(function, arg_list))

    result = {"ref": args.ref, "commit": commit, "python": sys.version.split()[0],
              "rounds": args.rounds, "count": args.count, "functions": {}}
    print(f"Python {result['python']}; {args.ref} ({commit[:12]}) against the working tree; "
          f"{args.rounds} rounds of {args.count} inputs; us per call, median [quartiles]")
    for name in sides["tree"]:
        ref, tree = times["ref"][name], times["tree"][name]
        row = {side: {"median": round(statistics.median(t), 1),
                      "quartiles": [round(q, 1) for q in statistics.quantiles(t, n=4)[::2]]}
               for side, t in (("ref", ref), ("tree", tree))}
        row["tree_faster_rounds"] = sum(t < r for r, t in zip(ref, tree))
        row["change"] = round(row["tree"]["median"] / row["ref"]["median"] - 1, 4)
        result["functions"][name] = row
        print(f"  {name:15} ref {row['ref']['median']:8.1f} {row['ref']['quartiles']}"
              f"  tree {row['tree']['median']:8.1f} {row['tree']['quartiles']}"
              f"  {row['change']:+.1%}  tree faster in {row['tree_faster_rounds']}/{args.rounds}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
