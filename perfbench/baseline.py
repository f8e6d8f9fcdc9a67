"""Record a baseline: repeated runs per workload plus one traced run each.

    python3 perfbench/baseline.py

Runs `run.py` for `run_seconds` of BENCHMARK.json once per seed (1..RUNS)
on every workload, then once traced (seed 1), and writes to OUT the machine
and interpreter it ran on, the commit, and for each end-to-end metric the
median, quartiles and spread (distance between the quartiles over the
median), the answer checks, and the per-layer metrics. Prints the spreads
as it goes.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import re
import ssl
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402

RUNS = 10
OUT = HERE / "baseline.json"
FAIL_RATIO = re.compile(r"fail_ratio ([0-9.]+)")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float, float]:
    """(result JSON, printed fail_ratio, wall seconds) of one run.py run."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    ratio = FAIL_RATIO.search(proc.stdout)
    return json.loads(lines[-1]), float(ratio.group(1)) if ratio else 0.0, \
        time.perf_counter() - t0


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        hashlib.new("ripemd160")
        ripemd = True
    except ValueError:
        ripemd = False
    return {"commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "openssl": ssl.OPENSSL_VERSION,
            "hashlib_ripemd160": ripemd, "platform": platform.platform()}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    doc = {"environment": environment(), "seconds": seconds, "runs": RUNS, "workloads": {}}
    for workload in gen.WORKLOADS:
        metrics: dict[str, list[float]] = {}
        checks = []
        for seed in range(1, RUNS + 1):
            result, ratio, wall = run_once(workload, seed, seconds, 0)
            checks.append({"seed": seed, "correct": result["correct"],
                           "attempted": result["attempted"], "failed": result["failed"],
                           "fail_ratio": ratio, "wall_s": round(wall, 1)})
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {wall:.0f} s, " + ", ".join(
                f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        entry = {"end_to_end": {k: summarize(v) for k, v in metrics.items()},
                 "checks": checks}
        for name, s in entry["end_to_end"].items():
            print(f"  {workload} {name}: median {s['median']:.4g}, spread {s['spread']:.3f}")
        result, ratio, wall = run_once(workload, 1, seconds, 1)
        entry["per_layer"] = {k: m["value"] for k, m in result["metrics"].items()}
        entry["traced_wall_s"] = round(wall, 1)
        doc["workloads"][workload] = entry
        OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
