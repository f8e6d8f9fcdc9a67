"""Document hash anchoring and the local content-addressed store.

The chain carries only a 32-byte digest; the document itself (optionally
encrypted by the caller first) lives off-chain, addressed by the hash of
exactly the bytes stored. Anchoring therefore reveals nothing about the
document's content.
"""

from __future__ import annotations

import os
import tempfile
from collections import namedtuple
from pathlib import Path

from .crypto import sha256
from .errors import EawardError, NotFound, Refusal
from .tx import (
    Script,
    Transaction,
    build_nulldata_script,
    compute_txid,
    nulldata_payload,
)


class AnchorError(EawardError):
    pass


class NoAnchorFound(AnchorError, Refusal):
    pass


class HashMismatch(AnchorError, Refusal):
    pass


class AwardDocument(namedtuple("AwardDocument", "data")):
    __slots__ = ()

    def __new__(cls, data: bytes):
        if not data:
            raise AnchorError("award document is empty")
        return super().__new__(cls, data)

    @classmethod
    def from_file(cls, path: str | Path) -> "AwardDocument":
        return cls(Path(path).read_bytes())


class AnchorProof(namedtuple("AnchorProof", "doc_hash txid vout_index")):
    __slots__ = ()

    def to_report(self) -> dict:
        return {
            "docHash": self.doc_hash.hex(),
            "txid": self.txid.hex(),
            "vout": self.vout_index,
        }


def checksum_award(doc: AwardDocument) -> bytes:
    return sha256(doc.data)


def build_anchor_script(doc_hash: bytes) -> Script:
    """The nulldata script for an anchor: its payload is exactly the 32 digest bytes."""
    if len(doc_hash) != 32:
        raise AnchorError("anchor payload must be a 32-byte digest")
    return build_nulldata_script(doc_hash)


def verify_anchor(doc: AwardDocument, tx: Transaction) -> AnchorProof:
    """Locate the nulldata output committing to the document's digest."""
    want = checksum_award(doc)
    found_nulldata = False
    for n, txout in enumerate(tx.outputs):
        payload = nulldata_payload(txout.script_pubkey)
        if payload is None:
            continue
        found_nulldata = True
        if payload == want:
            return AnchorProof(want, compute_txid(tx), n)
    if not found_nulldata:
        raise NoAnchorFound("transaction has no nulldata output")
    raise HashMismatch(
        "nulldata present but no payload equals the document digest")


class ObjectStore:
    """One file per object under root, named by the hex sha256 of its bytes.

    Writers stage to a temp file and atomically rename, so concurrent
    readers never observe partial objects; the digest is re-checked on every
    fetch.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, content_id: bytes) -> Path:
        return self.root / content_id.hex()

    def store(self, data: bytes) -> bytes:
        if not data:
            raise AnchorError("refusing to store an empty object")
        content_id = sha256(data)
        path = self._path(content_id)
        if path.exists():
            return content_id
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=".staging-")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        return content_id

    def fetch(self, content_id: bytes) -> bytes:
        try:
            data = self._path(content_id).read_bytes()
        except FileNotFoundError:
            raise NotFound(f"no object {content_id.hex()}") from None
        if sha256(data) != content_id:
            raise AnchorError(f"stored bytes for {content_id.hex()} no longer hash to it")
        return data
