"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload attest|forensics|cli --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; the package is taken from `src/` of the
same checkout, so each commit is measured from its own tree.

--trace 0 prints the end-to-end metrics: ops_per_s, latency_ms_p90, setup_s
and peak_rss_mb; the overall and per-kind latency medians are printed above
the result line (see README.md for why they are not gated). The op loop
runs in a fresh interpreter with no wrapper imported (the `cli` workload
starts one `python -m eaward.cli` process per request instead). setup_s is
the median of SETUP_RUNS fresh set-up interpreters timed at even steps
through the loop.
--trace 1 prints the per-layer metrics: for each traced function its calls
and self ms per traced op, byte counts and ratios measured at the wrappers,
the start-up split (bare interpreter, `import eaward.cli`, the `requests`
share of it, one in-process `cli.main`), and the tracing overhead: the run
alternates untraced and traced blocks of one composition block each, and
the overhead is the traced ops' mean time against the untraced ops'.

Every answer is checked against the generator's ground truth. Lines before
the last one are for people; the last line is one JSON object with the keys
correct, attempted, failed and metrics. `failed` counts wrong answers other
than the documented answers of known defects; `fail_ratio`, printed above,
counts those too. Exits 2 without a result when the checkout has no
`src/eaward`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

SETUP_RUNS = 21     # fresh-interpreter set-ups per run; setup_s is their median
PROBE_RUNS = 7      # runs of each start-up probe in a traced run
# Ops generated per measured second; the loop cycles through the pool, so
# inputs repeat only when the code runs faster than this.
POOL_PER_SECOND = {"attest": 250, "forensics": 250, "cli": 8}

# The published worked example: this signature verifies for this address
# and line, so `msg verify` prints "true".
PROBE_ARGV = ["msg", "verify", "mzV1dsMdDjtLSfRa2rPrE2oJpRtynKkjJX",
              "IO0vDf3ZqfRZ8FGGsnzzkMc65YQWIWb2+YqcQ9j/APK2QN1E2TTV/3xPkThhCfa7"
              "jahDTDVjZwKUpk7w1ypxg8s=",
              "A-JohnSmith-KkjJX C-Acme-fZN8L R-Baker-NBSvH London"]

END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_ms_p90": "ms", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def run_child(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(argv, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=170, **kwargs)


def run_worker(work: Path, workload: str, seconds: float, setups: int, trace: int) -> dict:
    """Run the op loop in a fresh worker interpreter; returns its result."""
    argv = [sys.executable, str(HERE / "worker.py"), "run", "--dir", str(work),
            "--workload", workload, "--seconds", str(seconds),
            "--block", str(gen.block_size(workload)), "--setups", str(setups),
            "--trace", str(trace)]
    proc = run_child(argv)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads((work / "result.json").read_text())


# ---------------------------------------------------------------------------
# Start-up split
# ---------------------------------------------------------------------------

IMPORT_PROBE = ("import time; t = time.perf_counter(); import eaward.cli; "
                "print((time.perf_counter() - t) * 1e3)")
MAIN_PROBE = ("import contextlib, io, sys, time, eaward.cli; out = io.StringIO(); "
              "t = time.perf_counter()\n"
              "with contextlib.redirect_stdout(out): code = eaward.cli.main(sys.argv[1:])\n"
              "dt = (time.perf_counter() - t) * 1e3\n"
              "assert code == 0 and out.getvalue() == 'true\\n', (code, out.getvalue())\n"
              "print(dt)")
IMPORTTIME_LINE = re.compile(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*requests\s*$")


def startup_split() -> dict:
    """Medians over PROBE_RUNS fresh interpreters, in ms."""
    py = sys.executable
    interp, imports, requests_share, main = [], [], [], []
    for _ in range(PROBE_RUNS):
        t0 = perf_counter_ns()
        run_child([py, "-c", "pass"], check=True)
        interp.append((perf_counter_ns() - t0) / 1e6)
        imports.append(float(run_child([py, "-c", IMPORT_PROBE], check=True).stdout))
        err = run_child([py, "-X", "importtime", "-c", "import eaward.cli"],
                        check=True).stderr
        us = [int(m.group(1)) for m in map(IMPORTTIME_LINE.match, err.splitlines()) if m]
        requests_share.append(us[0] / 1e3 if us else 0.0)
        main.append(float(run_child([py, "-c", MAIN_PROBE, *PROBE_ARGV],
                                    check=True).stdout))
    return {"cli.interp_ms": statistics.median(interp),
            "cli.import_ms": statistics.median(imports),
            "cli.import_requests_ms": statistics.median(requests_share),
            "cli.main_ms": statistics.median(main)}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def merge_tallies(*tallies: dict) -> dict:
    out = worker.new_tally()
    for t in tallies:
        for key in ("ok", "defect", "wrong"):
            out[key] += t[key]
        out["failures"] += t["failures"]
    return out


def all_samples(result: dict) -> list[int]:
    return [ns for values in result["samples"].values() for ns in values]


def end_to_end(result: dict) -> dict:
    all_ms = [ns / 1e6 for ns in all_samples(result)]
    return {
        "ops_per_s": result["ops"] / (result["busy_ns"] / 1e9),
        "latency_ms_p90": p90(all_ms),
        "setup_s": statistics.median(result["setup_ns"]) / 1e9,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def per_layer(result: dict, startup: dict, tally: dict) -> dict:
    summary = result["trace"]
    ops = summary["ops"]
    stats = summary["stats"]
    out = {}
    for name in spans.TARGETS:
        out[f"{name}.calls"] = (stats[name]["calls"] / ops, "1/op")
        out[f"{name}.self_ms"] = (stats[name]["self_ns"] / 1e6 / ops, "ms/op")
    for name in ("digest.sha256", "tx.parse", "chain.fetch"):
        out[f"{name}.bytes"] = (stats[name]["bytes"] / ops, "B/op")

    def ratio(num, den):
        return num / den if den else 0.0

    out["chain.parses_per_fetch"] = (
        ratio(summary["parses_in_fetch"], stats["chain.fetch"]["calls"]), "ratio")
    out["anchor.store.dedup_ratio"] = (
        ratio(stats["anchor.store"]["dedup"], stats["anchor.store"]["calls"]), "ratio")
    out["attestation.refused"] = (
        ratio(stats["attestation.certify"]["raised"], stats["attestation.certify"]["calls"]),
        "ratio")
    for name, value in startup.items():
        out[name] = (value, "ms")
    (untraced_ops, untraced_ns), (traced_ops, traced_ns) = result["untraced"], result["traced"]
    overhead = (traced_ns / traced_ops) / (untraced_ns / untraced_ops) - 1
    out["trace.overhead_pct"] = (overhead * 100, "%")
    out["check.fail_ratio"] = (worker.fail_ratio(tally), "ratio")
    return out


def print_details(title: str, result: dict, tally: dict, pool: int):
    """Sample counts, per-kind medians, repeats and the answer checks, for
    people."""
    by_kind = {**result["samples"], **result.get("parts", {})}
    n = result["ops"]
    attempted = tally["ok"] + tally["defect"] + tally["wrong"]
    print(f"{title}: {n} ops timed in {result['busy_ns'] / 1e9:.1f} s, "
          f"{n - math.ceil(0.9 * n)} beyond p90; pool of {pool} ops, "
          f"{max(0, n - pool) / n:.1%} of ops repeat an earlier input")
    print(f"  latency_ms_p50 {statistics.median(all_samples(result)) / 1e6:.4f} ms "
          f"(all kinds)")
    for kind, values in sorted(by_kind.items()):
        print(f"  {kind}_ms_p50 {statistics.median(values) / 1e6:.4f} ms "
              f"({len(values)} samples)")
    print(f"  answers: {tally['ok']} right, {tally['defect']} known-defect, "
          f"{tally['wrong']} wrong of {attempted}; "
          f"fail_ratio {worker.fail_ratio(tally):.4f}")
    print(f"  peak_rss_mb {result['peak_rss_kb'] / 1024:.1f} "
          f"({result['base_rss_kb'] / 1024:.1f} in the worker before the first op)")
    for line in tally["failures"][:5]:
        print(f"  wrong: {line}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="eaward benchmark: one workload, one run")
    p.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "eaward" / "__init__.py").is_file():
        print(f"error: no package at {ROOT / 'src' / 'eaward'}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        size = math.ceil(args.seconds * POOL_PER_SECOND[args.workload])
        ops = gen.generate(args.workload, args.seed, work, size)
        warm = gen.first_of_each_kind(ops)
        with open(work / "ops.jsonl", "w") as out:
            out.writelines(json.dumps(op) + "\n" for op in ops)
        (work / "warmup.json").write_text(json.dumps(warm))

        if args.trace:
            result = run_worker(work, args.workload, args.seconds, 0, 1)
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            shutil.copyfile(work / "spans.csv",
                            out_dir / f"spans-{args.workload}-{args.seed}.csv")
            tally = merge_tallies(result["warmup"], result["tally"])
            values = per_layer(result, startup_split(), tally)
            print_details(f"{args.workload} seed {args.seed}, half traced", result, tally,
                          len(ops))
        else:
            result = run_worker(work, args.workload, args.seconds, SETUP_RUNS, 0)
            tally = merge_tallies(result["warmup"], result["tally"])
            values = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(result).items()}
            print_details(f"{args.workload} seed {args.seed}", result, tally, len(ops))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = tally["ok"] + tally["defect"] + tally["wrong"]
    print(json.dumps({
        "correct": tally["wrong"] == 0,
        "attempted": attempted,
        "failed": tally["wrong"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
