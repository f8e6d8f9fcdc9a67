"""The end-to-end walkthrough script still runs against the library."""

import os
import subprocess
import sys
from pathlib import Path

import eaward

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_workflow.py"


def test_run_workflow_issues_a_certificate():
    src = str(Path(eaward.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert "linkage overall: True" in lines
    assert " - The transaction amount was 0.005 BTC" in lines
    assert lines[-4:] == [
        " - Party A's wallet digitally signed the embedded data.",
        " - The record is unaltered given 6 network confirmations.",
        "Origin, time, and intended legal effect are each established by the "
        "evidence itemized in this certificate.",
        "Note: the date and time stated are the miner-reported block header "
        "time; median-time-past rules bound its accuracy.",
    ]
