"""Tests of the benchmark itself (not part of the package's suite).

    python -m pytest perfbench -q

The traced-count tests pin what the current code does (one recovery and
one hash160 per verify_message, two parses per chain fetch); a change to
the package that removes work is expected to move them.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest

import gen
import refcrypto
import spans
import worker


@pytest.fixture(scope="module")
def package():
    worker.load_package("cli")
    return worker.E


def tree_digest(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload,size", [("attest", 200), ("forensics", 65), ("cli", 41)])
def test_generator_is_deterministic_per_seed(tmp_path, workload, size):
    a = gen.generate(workload, 5, tmp_path / "a", size)
    b = gen.generate(workload, 5, tmp_path / "b", size)
    c = gen.generate(workload, 6, tmp_path / "c", size)
    text = lambda ops, root: json.dumps(ops).replace(str(root), "ROOT")  # noqa: E731
    assert text(a, tmp_path / "a") == text(b, tmp_path / "b")
    assert tree_digest(tmp_path / "a") == tree_digest(tmp_path / "b")
    assert text(a, tmp_path / "a") != text(c, tmp_path / "c")


def test_attest_mix_has_fixed_shares(tmp_path):
    ops = gen.generate("attest", 1, tmp_path, 2 * sum(gen.ATTEST_BLOCK.values()))
    kinds = [op["kind"] for op in ops]
    assert kinds.count("verify") == 2 * 120
    assert kinds.count("sign") == 2 * 50
    assert kinds.count("certify") == 2 * 30
    negatives = [op for op in ops if op["kind"] == "verify" and op["expect"] != {"value": True}]
    assert len(negatives) == 2 * 30
    assert sum("defect" in op for op in ops) == 2 * 6


def run_op(ctx, op):
    _, outcome = worker.execute(ctx, op)
    return outcome


def test_forensic_blocks_repeat_no_input(tmp_path, package):
    per_block = gen.FORENSIC_RECORDS
    records = gen.generate("forensics", 2, tmp_path, 2 * per_block)
    assert len(records) == 2 * per_block
    assert len({r["args"]["txid"] for r in records}) == len(records)
    blocks = [records[:per_block], records[per_block:]]
    ids = [{r["expect"]["content_id"] for r in block} for block in blocks]
    assert [len(i) for i in ids] == [per_block - gen.FORENSIC_DUPLICATES] * 2
    assert not ids[0] & ids[1]
    # A later block's document is written just before its op.
    ctx = worker.Context(tmp_path)
    for op in blocks[1][:8]:
        worker.prepare(op)
        assert worker.verdict(op, run_op(ctx, op)) == "ok"
    ctx.close()


def test_loop_spreads_setups_over_the_run(tmp_path, package):
    ops = gen.generate("attest", 2, tmp_path, 0)
    ctx = worker.Context(tmp_path)
    result = worker.run_loop(ctx, itertools.cycle(ops), 0.2, len(ops),
                             setups=(4, lambda: 1000))
    ctx.close()
    assert result["setup_ns"] == [1000] * 4
    assert result["ops"] >= worker.MIN_SAMPLES
    assert sum(len(v) for v in result["samples"].values()) == result["ops"]
    assert result["tally"]["wrong"] == 0


def test_flipped_answer_is_counted(tmp_path, package):
    ops = gen.generate("attest", 3, tmp_path, 200)
    ctx = worker.Context(tmp_path)
    verify = next(op for op in ops if op["kind"] == "verify"
                  and op["expect"] == {"value": True})
    value, raised = run_op(ctx, verify)
    assert raised is None and value is True

    tally = worker.new_tally()
    assert worker.record(tally, verify, (value, raised)) == "ok"
    assert worker.record(tally, verify, (not value, raised)) == "wrong"
    assert worker.fail_ratio(tally) == 0.5
    assert len(tally["failures"]) == 1

    sign = next(op for op in ops if op["kind"] == "sign")
    address, signature = worker.normalize("sign", run_op(ctx, sign)[0])
    assert worker.library_ok(sign, (address, signature), None)
    flipped = signature[:10] + ("A" if signature[10] != "A" else "B") + signature[11:]
    assert worker.verdict(sign, (package.msgauth.SignedMessage(
        package.crypto.Address.from_text(address), "", flipped), None)) == "wrong"
    ctx.close()


def test_flipped_cli_exit_code_is_counted(tmp_path, package):
    ops = gen.generate("cli", 3, tmp_path, 41)
    ctx = worker.Context(tmp_path)
    op = next(op for op in ops if op["kind"] == "verify" and op["expect"]["exit"] == 0)
    code, out, err = run_op(ctx, op)
    assert worker.verdict(op, (code, out, err)) == "ok"
    assert worker.verdict(op, (1, out, err)) == "wrong"
    assert worker.verdict(op, (code, out, err + "Traceback (most recent call last):")) == "wrong"


def test_known_defects_are_told_apart(tmp_path, package):
    ops = gen.generate("attest", 3, tmp_path, 200)
    ctx = worker.Context(tmp_path)
    for op in (op for op in ops if "defect" in op):
        outcome = run_op(ctx, op)
        assert worker.verdict(op, outcome) in ("ok", "defect")
        # Any other wrong answer is still counted as wrong.
        assert worker.verdict(op, ("something else", None)) == "wrong"
    ctx.close()


def snapshot() -> dict:
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "eaward" or name.startswith("eaward."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def test_every_wrapped_function_is_restored(tmp_path, package):
    before = snapshot()
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    tracer.install()
    try:
        assert package.msgauth.ecdsa_recover is not before[("eaward.msgauth", "ecdsa_recover")]
        assert package.tx.hash160 is not before[("eaward.tx", "hash160")]
        assert package.crypto.ripemd160 is not before[("eaward.crypto", "ripemd160")]
        assert package.anchor.ObjectStore.store is not \
            before[("eaward.anchor", "ObjectStore", "store")]
        # Every target exists in this version, and some are bound at several names.
        assert len({id(fn) for _, _, fn in tracer.patched}) == len(spans.TARGETS)
        assert len(tracer.patched) > len(spans.TARGETS)
        ops = gen.generate("attest", 4, tmp_path, 200)
        ctx = worker.Context(tmp_path)
        for op in ops[:20]:
            run_op(ctx, op)
        ctx.close()
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert rec.summarize(20)["spans"] > 0


def traced(ctx, op):
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    tracer.install()
    try:
        rec.op_id = 0
        outcome = run_op(ctx, op)
    finally:
        tracer.uninstall()
    return rec, outcome


def test_traced_counts_match_the_code(tmp_path, package):
    ops = gen.generate("attest", 7, tmp_path / "a", 200)
    ctx = worker.Context(tmp_path / "a")
    verify = next(op for op in ops if op["kind"] == "verify"
                  and op["expect"] == {"value": True})
    rec, outcome = traced(ctx, verify)
    assert worker.verdict(verify, outcome) == "ok"
    stats = rec.summarize(1)["stats"]
    assert stats["msgauth.verify"]["calls"] == 1
    assert stats["crypto.recover"]["calls"] == 1
    assert stats["digest.hash160"]["calls"] == 1
    assert stats["crypto.sign"]["calls"] == 0
    verify_span = rec.names.index("msgauth.verify")
    for i, sid in enumerate(rec.name):
        if rec.names[sid] in ("crypto.recover", "digest.hash160"):
            assert rec.name[rec.parent[i]] == verify_span

    sign = next(op for op in ops if op["kind"] == "sign")
    stats = traced(ctx, sign)[0].summarize(1)["stats"]
    assert stats["crypto.sign"]["calls"] == 1
    assert stats["crypto.pubkey"]["calls"] == 1

    records = gen.generate("forensics", 7, tmp_path / "f", 0)
    ctx = worker.Context(tmp_path / "f")
    rec, outcome = traced(ctx, records[0])
    assert worker.verdict(records[0], outcome) == "ok"
    summary = rec.summarize(1)
    assert summary["stats"]["chain.fetch"]["calls"] == 1
    assert summary["parses_in_fetch"] / summary["stats"]["chain.fetch"]["calls"] == 2.0
    assert summary["stats"]["crypto.recover"]["calls"] == 0
    assert summary["stats"]["anchor.store"]["bytes"] > 0
    ctx.close()


def test_self_time_excludes_children():
    rec = spans.Recorder()
    outer = rec.open(0)
    inner = rec.open(1)
    rec.close(inner, 0)
    rec.close(outer, 0)
    rec.start[outer], rec.end[outer] = 0, 100
    rec.start[inner], rec.end[inner] = 10, 40
    stats = rec.summarize(1)["stats"]
    assert stats[rec.names[0]]["self_ns"] == 70
    assert stats[rec.names[1]]["self_ns"] == 30


@pytest.mark.parametrize("message,digest", [
    (b"", "9c1185a5c5e9fc54612808977ee8f548b2258d31"),
    (b"abc", "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc"),
    (b"message digest", "5d0689ef49d2fae572b881b123a85ffa21595f36"),
    (b"1234567890" * 8, "9b752e45573d4b39f4dbd3323cab82bf63326bfb"),
])
def test_reference_ripemd160_fallback_matches_published_vectors(message, digest):
    assert refcrypto._ripemd160_py(message).hex() == digest
