"""Document hash anchoring and the local content-addressed store.

The chain carries only a 32-byte digest; the document itself (optionally
encrypted by the caller first) lives off-chain, addressed by the hash of
exactly the bytes stored. Anchoring therefore reveals nothing about the
document's content.

`checksum_file` hashes a document from its path in READ_CHUNK pieces, so the
commands that need only its digest (`anchor verify`, `anchor create` without
`--store`) hold no more of it than one chunk. `AwardDocument` and the store
hold a document whole: the store takes and returns bytes, and its library
callers hand it the bytes they already hold.
"""

from __future__ import annotations

import hashlib
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


# Bytes read at a time by checksum_file.
READ_CHUNK = 64 * 1024


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


def checksum_file(path: str | Path) -> bytes:
    """The SHA-256 of the document at path, read READ_CHUNK bytes at a time;
    refuses an empty file as AwardDocument does."""
    with Path(path).open("rb") as fh:
        chunk = fh.read(READ_CHUNK)
        if not chunk:
            raise AnchorError("award document is empty")
        digest = hashlib.sha256(chunk)
        while chunk := fh.read(READ_CHUNK):
            digest.update(chunk)
    return digest.digest()


def build_anchor_script(doc_hash: bytes) -> Script:
    """The nulldata script for an anchor: its payload is exactly the 32 digest bytes."""
    if len(doc_hash) != 32:
        raise AnchorError("anchor payload must be a 32-byte digest")
    return build_nulldata_script(doc_hash)


def verify_anchor(doc: AwardDocument, tx: Transaction) -> AnchorProof:
    """Locate the nulldata output committing to the document's digest."""
    return verify_anchor_digest(checksum_award(doc), tx)


def verify_anchor_digest(doc_hash: bytes, tx: Transaction) -> AnchorProof:
    """Locate the nulldata output whose payload is doc_hash."""
    found_nulldata = False
    for n, txout in enumerate(tx.outputs):
        payload = nulldata_payload(txout.script_pubkey)
        if payload is None:
            continue
        found_nulldata = True
        if payload == doc_hash:
            return AnchorProof(doc_hash, compute_txid(tx), n)
    if not found_nulldata:
        raise NoAnchorFound("transaction has no nulldata output")
    raise HashMismatch(
        f"nulldata present but no payload equals the document digest {doc_hash.hex()}")


class ObjectStore:
    """One file per object under root, named by the hex sha256 of its bytes.

    Writers stage to a temp file and atomically rename, so concurrent
    readers never observe partial objects; the digest is re-checked on every
    fetch. A store keeps an existing object only if it holds exactly the
    bytes stored, and otherwise writes over it, so storing repairs an object
    whose bytes no longer hash to its name.
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
        if self._holds(path, data):
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

    @staticmethod
    def _holds(path: Path, data: bytes) -> bool:
        """Whether the file at path holds exactly data. Equal bytes hash to
        the same name, and comparing them is cheaper than hashing."""
        try:
            with path.open("rb") as fh:
                return fh.read(len(data) + 1) == data
        except FileNotFoundError:
            return False

    def fetch(self, content_id: bytes) -> bytes:
        try:
            data = self._path(content_id).read_bytes()
        except FileNotFoundError:
            raise NotFound(f"no object {content_id.hex()}") from None
        if sha256(data) != content_id:
            raise AnchorError(f"stored bytes for {content_id.hex()} no longer hash to it")
        return data
