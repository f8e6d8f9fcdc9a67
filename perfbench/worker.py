"""One fresh interpreter that drives the package in-process.

    python perfbench/worker.py setup --dir D --workload W
    python perfbench/worker.py run --dir D --workload W --seconds S --block B \
        [--setups K] [--trace 1]

`setup` imports the package (and `eaward.cli` for the cli workload) and
completes one op of each kind from D/warmup.json, then exits; its parent
times it. `run` also warms up, then runs D/ops.jsonl in order, cycling, in
a closed loop with one client until the timed work adds up to S seconds
(and at least MIN_SAMPLES ops), and writes D/result.json: the latencies of
each op kind, answer-check verdicts and peak RSS. The pool is read one line
at a time, so its size does not show in the worker's memory. Each
composition block (B ops) starts with an empty object store and a new chain
source. On the cli workload `run` starts one `python -m eaward.cli` process
per op and does not import the package itself. With --setups K the loop
pauses K times, evenly over its timed work, to time one `setup` interpreter
each, so that set-up time is sampled across the run's machine conditions.
With --trace 1 the tracer is installed for every other composition block
and removed for the rest, so traced and untraced ops interleave under the
same machine conditions (on cli, `cli.main` then runs in-process); the
result then also holds the span summary and the op time of each half, and
the spans go to D/spans.csv.

The op runners call the package through module attributes looked up at call
time, so that the tracer's wrappers, when installed, see every call.
Checking happens outside the timed region.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import traceback
from array import array
from datetime import datetime, timezone
from pathlib import Path
from time import perf_counter_ns

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
ISSUED_AT = datetime(2020, 1, 1, tzinfo=timezone.utc)
# Fewest samples per run: at least ten then lie beyond the 90th percentile.
MIN_SAMPLES = 110
CLI_TIMEOUT_S = 60  # a hung CLI process is killed and its answer counts as wrong

E = None  # the imported package, set by load_package()


def load_package(workload: str):
    global E
    sys.path.insert(0, str(SRC))
    # Named one by one, so the runners do not depend on what __init__ imports.
    import eaward
    import eaward.anchor, eaward.attestation, eaward.chain, eaward.escrow  # noqa: E401
    import eaward.msgauth, eaward.tx  # noqa: E401
    if workload == "cli":
        import eaward.cli  # noqa: F401
    E = eaward


# ---------------------------------------------------------------------------
# Op runners: inputs in, the program's answer out (or an exception)
# ---------------------------------------------------------------------------

class Context:
    """Per-run state the runners share: chain source and object store."""

    def __init__(self, work: Path):
        self.work = work
        self.source = None
        self.store_root = None
        self.store = None
        self.parts = None   # sub-op timings the last op reported, in ns
        self.renew("0")

    def renew(self, tag: str):
        """Start a new chain source and an empty object store, discarding
        the previous store."""
        self.source = E.chain.ChainSource("fixture", E.TESTNET,
                                          fixture_root=self.work / "chain")
        if self.store_root is not None:
            shutil.rmtree(self.store_root, ignore_errors=True)
        self.store_root = self.work / f"store-{os.getpid()}-{tag}"
        shutil.rmtree(self.store_root, ignore_errors=True)
        self.store = E.anchor.ObjectStore(self.store_root)

    def close(self):
        if self.store_root is not None:
            shutil.rmtree(self.store_root, ignore_errors=True)


class Processes:
    """Context of the cli workload run one process per op. A child's
    ru_maxrss also counts its parent's RSS at the fork, so the parent here
    is this small interpreter, which never imports the package."""

    parts = None

    def __init__(self, work: Path):
        self.work = work
        self.peak_rss_kb = 0

    def renew(self, tag: str):
        pass

    def close(self):
        pass


def run_verify(ctx, a):
    return E.msgauth.verify_message(a["address"], a["signature"], a["message"])


def run_sign(ctx, a):
    key = E.crypto.PrivateKey.from_bytes(bytes.fromhex(a["key"]))
    return E.msgauth.sign_message(key, a["message"], E.TESTNET)


def run_certify(ctx, a):
    agreement = E.attestation.load_agreement(a["agreement_file"])
    txid = E.tx.Txid.from_hex(a["txid"])
    tx = E.chain.get_transaction(ctx.source, txid)
    status = E.chain.get_tx_status(ctx.source, txid)
    attestation = E.msgauth.SignedMessage(
        E.crypto.Address.from_text(a["arbitrator"]), a["message"], a["attestation"])
    return E.attestation.issue_certificate(
        agreement, tx, status, [attestation], a["certifier"], issued_at=ISSUED_AT)


def run_forensic(ctx, a):
    """One evidence record: fetch, report, redeem script, escrow address
    (timed as its "decode" part), then anchor check, store and fetch of the
    award document (its "anchor" part)."""
    net = E.TESTNET
    t0 = perf_counter_ns()
    tx = E.chain.get_transaction(ctx.source, E.tx.Txid.from_hex(a["txid"]))
    report = E.tx.transaction_report(tx, net)
    revealed = tx.inputs[0].script_sig.pushes()[-1]
    decoded = E.tx.decode_script(E.tx.Script(revealed), net)
    policy = E.escrow.EscrowPolicy(
        a["m"], tuple(E.crypto.PublicKey.from_hex(k) for k in a["pubkeys"]))
    p2sh = E.escrow.p2sh_address(E.escrow.build_redeem_script(policy), net)
    t1 = perf_counter_ns()
    doc = E.anchor.AwardDocument.from_file(a["doc_file"])
    try:
        proof = E.anchor.verify_anchor(doc, tx)
    except Exception as exc:  # the answer may be a typed refusal
        proof = exc.with_traceback(None)  # keep no frames, so no document, alive
    content_id = ctx.store.store(doc.data)
    fetched = ctx.store.fetch(content_id)
    ctx.parts = {"decode": t1 - t0, "anchor": perf_counter_ns() - t1}
    return report, decoded, p2sh, proof, content_id, fetched == doc.data


def run_cli(ctx, argv):
    """cli.main in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = E.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def run_cli_process(ctx, argv):
    """One `python -m eaward.cli` process; returns (exit code, stdout,
    stderr) and notes its peak RSS."""
    out_path, err_path = ctx.work / "cli.out", ctx.work / "cli.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, "-m", "eaward.cli", *argv],
                                stdout=out, stderr=err)
        watchdog = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        watchdog.start()
        _, status, usage = os.wait4(proc.pid, 0)
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    ctx.peak_rss_kb = max(ctx.peak_rss_kb, usage.ru_maxrss)
    return (proc.returncode, out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"))


RUNNERS = {"verify": run_verify, "sign": run_sign, "certify": run_certify,
           "forensic": run_forensic}


# ---------------------------------------------------------------------------
# Answer checks
# ---------------------------------------------------------------------------

def normalize(kind: str, value):
    """The parts of a library answer the checks compare, as plain data."""
    if kind == "sign":
        return value.address.text, value.signature_b64
    if kind == "certify":
        return value.to_report()
    if kind == "forensic":
        report, decoded, p2sh, proof, content_id, same = value
        anchor = proof.vout_index if not isinstance(proof, Exception) else proof
        return {
            "txid": report["txid"], "size": report["size"], "n_in": len(report["vin"]),
            "vout": [[v["value"], v["scriptPubKey"]["type"],
                      v["scriptPubKey"].get("addresses")] for v in report["vout"]],
            "redeem": {"m": decoded.req_sigs if decoded.kind == "multisig" else None,
                       "addresses": [x.text for x in decoded.addresses or ()]},
            "p2sh": p2sh.text, "anchor": anchor,
            "doc_hash": None if isinstance(proof, Exception) else proof.doc_hash.hex(),
            "content_id": content_id.hex(), "fetched_same": same,
        }
    return value


def cert_ok(want: dict, got: dict) -> bool:
    findings = got.get("findings", [])
    return (got.get("txid") == want["txid"]
            and want["amount"] in findings
            and all(line in findings for line in want["relates"])
            and got.get("timeEvidence", {}).get("blockTime") == want["blockTime"]
            and got.get("timeEvidence", {}).get("confirmations") == want["confirmations"]
            and got.get("intentEvidence", {}).get("attestedMessage") == want["attestedMessage"]
            and got.get("originEvidence", {}).get("linkage", {}).get("overall") is True)


def library_ok(op: dict, value, raised) -> bool:
    e = op["expect"]
    if raised is not None:
        return bool(e.get("error") or e.get("or_error")) and isinstance(raised, E.EawardError)
    kind = op["kind"]
    if kind == "verify":
        return "value" in e and value is e["value"]
    if kind == "sign":
        return value == (e["address"], e["signature"])
    if kind == "certify":
        return "cert" in e and cert_ok(e["cert"], value)
    if kind == "forensic":
        got = dict(value)
        anchor = got.pop("anchor")
        doc_hash = got.pop("doc_hash")
        if e["anchor"] is None:
            anchor_ok = isinstance(anchor, E.EawardError)
        else:
            anchor_ok = anchor == e["anchor"] and doc_hash == e["content_id"]
        return (anchor_ok and got.pop("fetched_same") is True
                and got == {k: e[k] for k in ("txid", "size", "n_in", "vout", "redeem",
                                              "p2sh", "content_id")})
    return False


def library_defect(op: dict, value, raised) -> bool:
    d = op.get("defect")
    if not d:
        return False
    if "raises" in d:
        return raised is not None and type(raised).__name__ == d["raises"] \
            and not isinstance(raised, E.EawardError)
    return raised is None and value is d["value"]


def cli_ok(expect: dict, code: int, out: str, err: str) -> bool:
    if code != expect["exit"] or "Traceback" in err:
        return False
    if "stdout" in expect:
        return out == expect["stdout"]
    if "lines" in expect:
        lines = out.splitlines()
        return all(line in lines for line in expect["lines"])
    if "report" in expect:
        want = expect["report"]
        try:
            doc = json.loads(out)
        except ValueError:
            return False
        got = {"txid": doc.get("txid"), "size": doc.get("size"),
               "n_in": len(doc.get("vin", [])),
               "vout": [[v["value"], v["scriptPubKey"]["type"],
                         v["scriptPubKey"].get("addresses")] for v in doc.get("vout", [])]}
        return got == want
    if "cert" in expect:
        try:
            return cert_ok(expect["cert"], json.loads(out))
        except ValueError:
            return False
    return True


def cli_defect(op: dict, code: int, err: str) -> bool:
    d = op.get("defect")
    return bool(d) and code == d["exit"] and ("Traceback" in err) == d["traceback"]


def verdict(op: dict, outcome) -> str:
    """"ok", "defect" (the documented wrong answer of a known defect) or
    "wrong"."""
    if "argv" in op:
        code, out, err = outcome
        if cli_ok(op["expect"], code, out, err):
            return "ok"
        return "defect" if cli_defect(op, code, err) else "wrong"
    value, raised = outcome
    try:
        if raised is None:
            value = normalize(op["kind"], value)
        if library_ok(op, value, raised):
            return "ok"
    except (AttributeError, KeyError, TypeError, ValueError):
        return "wrong"  # an answer of another shape than the API promises
    return "defect" if library_defect(op, value, raised) else "wrong"


def describe(op: dict, outcome) -> str:
    if "argv" in op:
        code, out, err = outcome
        return f"{op['kind']} {op['argv'][:6]}: exit {code}, stdout {out[:120]!r}, " \
               f"stderr {err[-300:]!r}"
    value, raised = outcome
    return f"{op['kind']} {str(op['args'])[:160]}: " + (
        f"raised {type(raised).__name__}: {raised}" if raised is not None
        else f"returned {str(value)[:200]}")


# ---------------------------------------------------------------------------
# The loop
# ---------------------------------------------------------------------------

def prepare(op):
    """Untimed set-up of one op: write a forensic record's document when it
    is a base document behind a prefix (see gen.forensic_records)."""
    source = op.get("args", {}).get("doc_from")
    if source:
        base, prefix = source
        with open(op["args"]["doc_file"], "wb") as out, open(base, "rb") as data:
            out.write(bytes.fromhex(prefix))
            shutil.copyfileobj(data, out)


def execute(ctx, op):
    """Run one op; returns (elapsed ns, outcome). Only the call is timed."""
    if "argv" in op:
        run = run_cli_process if isinstance(ctx, Processes) else run_cli
        t0 = perf_counter_ns()
        outcome = run(ctx, op["argv"])
        return perf_counter_ns() - t0, outcome
    runner = RUNNERS[op["kind"]]
    raised = value = None
    t0 = perf_counter_ns()
    try:
        value = runner(ctx, op["args"])
    except Exception as exc:
        raised = exc.with_traceback(None)  # frames would keep the op's inputs alive
    elapsed = perf_counter_ns() - t0
    return elapsed, (value, raised)


def new_tally() -> dict:
    return {"ok": 0, "defect": 0, "wrong": 0, "failures": []}


def fail_ratio(tally: dict) -> float:
    """Wrong answers, known defects included, over answers checked."""
    attempted = tally["ok"] + tally["defect"] + tally["wrong"]
    return (tally["defect"] + tally["wrong"]) / attempted if attempted else 0.0


def record(tally: dict, op: dict, outcome) -> str:
    v = verdict(op, outcome)
    tally[v] += 1
    if v == "wrong" and len(tally["failures"]) < 10:
        tally["failures"].append(describe(op, outcome))
    return v


def warm_up(ctx, ops: list[dict], tally: dict):
    ctx.renew("warmup")
    for op in ops:
        prepare(op)
        _, outcome = execute(ctx, op)
        record(tally, op, outcome)


def own_peak_rss_kb() -> int:
    """This interpreter's peak RSS. ru_maxrss, the fallback, also counts the
    parent's RSS at the fork that started it."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def time_setup(work: Path, workload: str) -> int:
    """Wall ns of one fresh interpreter running `setup`."""
    argv = [sys.executable, str(Path(__file__).resolve()), "setup", "--dir", str(work),
            "--workload", workload]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = perf_counter_ns()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=170)
    elapsed = perf_counter_ns() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"setup exited {proc.returncode}: {proc.stderr[-2000:]}")
    return elapsed


def read_pool(path: Path):
    """The pool's ops in order, over and over, one line at a time."""
    while True:
        with open(path) as lines:
            for line in lines:
                yield json.loads(line)


def run_loop(ctx, pool, seconds: float, block: int, tracer=None, setups=None) -> dict:
    """pool: ops in run order; block: ops per composition block; setups:
    (count, callable returning one set-up's ns) or None."""
    budget = int(seconds * 1e9)
    busy = 0
    samples: dict[str, array] = {}  # kind -> ns of each op
    parts: dict[str, array] = {}
    setup_ns = []
    halves = {False: [0, 0], True: [0, 0]}  # traced? -> [ops, ns]
    traced = False
    tally = new_tally()
    n = 0
    least = max(MIN_SAMPLES, 2 * block) if tracer else MIN_SAMPLES
    while busy < budget or n < least:
        if setups and len(setup_ns) < setups[0] and busy * setups[0] >= len(setup_ns) * budget:
            setup_ns.append(setups[1]())
        if n % block == 0:
            ctx.renew(str(n // block))
            if tracer is not None:
                traced = (n // block) % 2 == 1
                tracer.install() if traced else tracer.uninstall()
        if tracer is not None:
            tracer.rec.op_id = n
        op = next(pool)
        prepare(op)
        elapsed, outcome = execute(ctx, op)
        busy += elapsed
        halves[traced][0] += 1
        halves[traced][1] += elapsed
        samples.setdefault(op["kind"], array("q")).append(elapsed)
        if ctx.parts:
            for part, ns in ctx.parts.items():
                parts.setdefault(part, array("q")).append(ns)
            ctx.parts = None
        record(tally, op, outcome)
        n += 1
    while setups and len(setup_ns) < setups[0]:
        setup_ns.append(setups[1]())
    result = {"ops": n, "busy_ns": busy, "samples": samples, "parts": parts,
              "setup_ns": setup_ns, "tally": tally}
    if tracer is not None:
        tracer.uninstall()
        result["untraced"], result["traced"] = halves[False], halves[True]
        result["trace"] = tracer.rec.summarize(halves[True][0])
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=["setup", "run"])
    p.add_argument("--dir", required=True, type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--block", type=int, default=1, help="ops per composition block")
    p.add_argument("--setups", type=int, default=0, metavar="K",
                   help="time K fresh set-up interpreters, spread over the loop")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0,
                   help="alternate traced and untraced composition blocks")
    args = p.parse_args(argv)

    processes = args.workload == "cli" and args.mode == "run" and not args.trace
    if processes:
        ctx = Processes(args.dir)
    else:
        load_package(args.workload)
        ctx = Context(args.dir)
    base_rss_kb = own_peak_rss_kb()
    warm = json.loads((args.dir / "warmup.json").read_text())
    tally = new_tally()
    try:
        warm_up(ctx, warm, tally)
        if args.mode == "setup":
            return 0 if tally["wrong"] == 0 else 1
        tracer = None
        if args.trace:
            from spans import Recorder, Tracer
            tracer = Tracer(Recorder())
        setups = (args.setups, lambda: time_setup(args.dir, args.workload))
        try:
            result = run_loop(ctx, read_pool(args.dir / "ops.jsonl"), args.seconds,
                              args.block, tracer, setups)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        ctx.close()
    result["warmup"] = tally
    result["peak_rss_kb"] = ctx.peak_rss_kb if processes else own_peak_rss_kb()
    result["base_rss_kb"] = base_rss_kb
    for key in ("samples", "parts"):
        result[key] = {kind: values.tolist() for kind, values in result[key].items()}
    if tracer is not None:
        tracer.rec.write(str(args.dir / "spans.csv"))
    (args.dir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
