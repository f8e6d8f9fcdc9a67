"""Span tracing of the package's public functions, installed from outside.

`Tracer.install()` replaces each function in TARGETS at every name it is
bound to inside the `eaward` package (for example `ecdsa_recover` in both
`eaward.crypto` and `eaward.msgauth`, `hash160` in `crypto`, `tx`, `escrow`
and `msgauth`), or on its class for methods. `uninstall()` puts every
original back. Spans (name, start, end, parent, op id) go into flat arrays
in memory and are written out once, at the end of the run.

A layer's self time is its span duration minus the time its direct child
spans cover. Functions a later version no longer has are skipped, and their
metrics read zero.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from array import array
from time import perf_counter_ns

# span name -> "module:attribute" of the function it wraps
TARGETS = {
    "crypto.recover": "eaward.crypto:ecdsa_recover",
    "crypto.sign": "eaward.crypto:ecdsa_sign_recoverable",
    "crypto.pubkey": "eaward.crypto:PrivateKey.public_key",
    "msgauth.verify": "eaward.msgauth:verify_message",
    "msgauth.sign": "eaward.msgauth:sign_message",
    "digest.sha256": "eaward.crypto:sha256",
    "digest.hash256": "eaward.crypto:hash256",
    "digest.hash160": "eaward.crypto:hash160",
    "digest.ripemd160": "eaward.crypto:ripemd160",
    "base58.encode": "eaward.crypto:base58check_encode",
    "base58.decode": "eaward.crypto:base58check_decode",
    "tx.parse": "eaward.tx:parse_transaction",
    "tx.serialize": "eaward.tx:Transaction.serialize",
    "tx.txid": "eaward.tx:compute_txid",
    "tx.report": "eaward.tx:transaction_report",
    "tx.decode_script": "eaward.tx:decode_script",
    "chain.fetch": "eaward.chain:get_transaction",
    "chain.status": "eaward.chain:get_tx_status",
    "anchor.verify": "eaward.anchor:verify_anchor",
    "anchor.store": "eaward.anchor:ObjectStore.store",
    "anchor.fetch": "eaward.anchor:ObjectStore.fetch",
    "escrow.redeem": "eaward.escrow:build_redeem_script",
    "escrow.p2sh": "eaward.escrow:p2sh_address",
    "metadata.decode": "eaward.metadata:decode_metadata",
    "attestation.load": "eaward.attestation:load_agreement",
    "attestation.match": "eaward.attestation:match_transaction",
    "attestation.certify": "eaward.attestation:issue_certificate",
    "cli.main": "eaward.cli:main",
}

RAISED = 1
DEDUP = 2


def _fixture_bytes(args, result, before):
    """Bytes read from the fixture file behind chain.get_transaction."""
    src, txid = args[0], args[1]
    try:
        return os.path.getsize(os.path.join(src.fixture_root, txid.hex() + ".hex")), 0
    except (AttributeError, TypeError, OSError):
        return 0, 0


def _store_entries(args):
    return len(os.listdir(args[0].root))


def _store_dedup(args, result, before):
    return len(args[1]), DEDUP if _store_entries(args) == before else 0


# span name -> (before(args) -> state, after(args, result, state) -> (bytes, flag))
HOOKS = {
    "digest.sha256": (None, lambda a, r, b: (len(a[0]), 0)),
    "tx.parse": (None, lambda a, r, b: (len(a[0]) // 2, 0)),
    "chain.fetch": (None, _fixture_bytes),
    "anchor.store": (_store_entries, _store_dedup),
}


class Recorder:
    """Flat span arrays: name id, start, end, parent index, op id, bytes, flags."""

    def __init__(self):
        self.names = list(TARGETS)
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.size = array("q")
        self.flags = array("b")
        self.stack = []
        self.op_id = -1

    def open(self, sid: int) -> int:
        i = len(self.name)
        self.name.append(sid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.end.append(0)
        self.size.append(0)
        self.flags.append(0)
        self.stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def close(self, i: int, flag: int):
        self.end[i] = perf_counter_ns()
        self.stack.pop()
        self.flags[i] = flag

    def write(self, path: str):
        with open(path, "w") as fh:
            fh.write("span,start_ns,end_ns,parent,op,bytes,flags\n")
            for i in range(len(self.name)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i]},{self.end[i]},"
                         f"{self.parent[i]},{self.op[i]},{self.size[i]},{self.flags[i]}\n")

    def summarize(self, ops: int) -> dict:
        """Per span name: calls, self ns, bytes, raised and dedup counts,
        plus the parses made inside each chain fetch."""
        n = len(self.name)
        child_ns = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_ns[p] += self.end[i] - self.start[i]
        stats = {name: {"calls": 0, "self_ns": 0, "bytes": 0, "raised": 0, "dedup": 0}
                 for name in self.names}
        fetch_id = self.names.index("chain.fetch")
        parse_id = self.names.index("tx.parse")
        parses_in_fetch = 0
        for i in range(n):
            s = stats[self.names[self.name[i]]]
            s["calls"] += 1
            s["self_ns"] += self.end[i] - self.start[i] - child_ns[i]
            s["bytes"] += self.size[i]
            s["raised"] += self.flags[i] == RAISED
            s["dedup"] += self.flags[i] == DEDUP
            if self.name[i] == parse_id:
                p = self.parent[i]
                while p >= 0 and self.name[p] != fetch_id:
                    p = self.parent[p]
                parses_in_fetch += p >= 0
        return {"ops": ops, "spans": n, "stats": stats, "parses_in_fetch": parses_in_fetch}


def _resolve(target: str):
    """(owner, attribute, is_class_attr) for "module:name" or "module:Class.name"."""
    modname, _, qual = target.partition(":")
    owner = sys.modules.get(modname) or importlib.import_module(modname)
    parts = qual.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if parts[-1] not in vars(owner):
        return None
    return owner, parts[-1], len(parts) > 1


class Tracer:
    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self.patched = []   # (owner, attribute, original), in patch order

    def _wrapper(self, sid: int, fn, before, after):
        rec = self.rec

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            i = rec.open(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec.close(i, RAISED)
                raise
            rec.close(i, 0)
            if after:
                rec.size[i], flag = after(args, result, state)
                rec.flags[i] = flag
            return result

        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "eaward" or name.startswith("eaward.")]
        for sid, (span, target) in enumerate(TARGETS.items()):
            found = _resolve(target)
            if found is None:
                continue
            owner, attr, is_class_attr = found
            fn = vars(owner)[attr]
            wrapper = self._wrapper(sid, fn, *HOOKS.get(span, (None, None)))
            if is_class_attr:
                bindings = [(owner, attr)]
            else:
                bindings = [(m, name) for m in modules
                            for name, value in list(vars(m).items()) if value is fn]
            for obj, name in bindings:
                setattr(obj, name, wrapper)
                self.patched.append((obj, name, fn))

    def uninstall(self):
        while self.patched:
            obj, name, fn = self.patched.pop()
            setattr(obj, name, fn)
