"""The end-to-end walkthrough script still runs the CLI on a fresh world."""

from pathlib import Path

from conftest import run_python

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "run_workflow.py"


def test_run_workflow_issues_a_certificate():
    proc = run_python(str(SCRIPT))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    # agreement validate, then msg verify, each answering on the line after it.
    answers = [lines[i + 1] for i, line in enumerate(lines) if line.startswith("$ eaward ")]
    assert answers[:2] == ["ok", "true"]
    assert " - The transaction amount was 0.005 BTC" in lines
    assert lines[-4:] == [
        " - Party A's wallet digitally signed the embedded data.",
        " - The record is unaltered given 42 network confirmations.",
        "Origin, time, and intended legal effect are each established by the "
        "evidence itemized in this certificate.",
        "Note: the date and time stated are the miner-reported block header "
        "time; median-time-past rules bound its accuracy.",
    ]
