#!/usr/bin/env python3
"""End-to-end walkthrough: eaward's commands on one fresh escrow case.

tests/world.py builds the case from --seed, --seat and --jurisdiction,
without eaward: the agreement, the award transaction and its status, and
the arbitrator's signature of the line it carries (the spend's own
signatures are placeholders). The script files the case in a temporary
fixture root and runs `agreement validate`, `msg verify` and `certify` on it
through eaward.cli.main, printing each command line and what it prints.

Usage: python scripts/run_workflow.py [--seed TEXT] [--seat London] [--jurisdiction England]
"""

import argparse
import importlib.util
import shlex
import tempfile
from pathlib import Path

from eaward.cli import main as eaward

WORLD = Path(__file__).resolve().parents[1] / "tests" / "world.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", default="workflow demo", help="key derivation tag")
    parser.add_argument("--seat", default="London")
    parser.add_argument("--jurisdiction", default="England",
                        choices=["England", "Switzerland", "other"])
    args = parser.parse_args()

    spec = importlib.util.spec_from_file_location(WORLD.stem, WORLD)
    world = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(world)
    case = world.build_world(args.seed, args.seat, args.jurisdiction)

    with tempfile.TemporaryDirectory() as root:
        agreement = str(world.file_world(case, Path(root)))
        arbitrator = case.agreement["parties"][0]["address"]
        for argv in (
            ["agreement", "validate", agreement],
            ["msg", "verify", arbitrator, case.signature, case.line],
            ["--fixture-root", root, "certify", agreement, case.txid,
             "--attestation", case.signature, "--certifier", "Workflow Demo Certifier"],
        ):
            print(f"\n$ eaward {shlex.join(argv)}", flush=True)
            code = eaward(argv)
            if code:
                return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
