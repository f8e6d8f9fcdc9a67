"""Shared exception roots, the one reader of each outside format (hex text,
JSON documents and the typed fields inside them), and the one writer of a
file that readers may open while it is written (`replace_file`, for the
object store, a fixture broadcast and `certify --out`).

A failure's class decides its exit code, and its message says what failed:
a Refusal exits 1 and any other EawardError exits 2. So each module has one
error class of its own (tx's TxError, chain's ChainError, ...). The only
other classes are the roots here, the ones code catches by name (crypto's
RecoveryFailed, chain's MalformedStatus), chain's TxidMismatch, and one
Refusal per exit-1 verdict (anchor's NoAnchorFound and HashMismatch,
attestation's LinkageFailed, AttestationInvalid and NoTimeEvidence).
"""

import re


class EawardError(Exception):
    """Base class for every error this package raises on purpose."""


class Refusal(EawardError):
    """A check ran and answered no. Every other EawardError is a usage or
    data error."""


class NotFound(EawardError):
    """A chain source or the object store has nothing under the requested id."""


class MalformedHex(EawardError):
    pass


_HEX_RE = re.compile(r"[0-9a-fA-F]*")


def parse_hex(text: str) -> bytes:
    """The bytes of hex text. Whitespace may surround the digits but not
    separate them.

    bytes.fromhex skips ASCII whitespace between digit pairs, so what it
    decodes is kept only when it holds a byte for every two characters; any
    other text is refused, and only then does the regex name the fault."""
    text = text.strip()
    try:
        data = bytes.fromhex(text)
    except ValueError:
        data = b""
    if 2 * len(data) == len(text):
        return data
    if not _HEX_RE.fullmatch(text):
        raise MalformedHex("non-hex characters in input")
    raise MalformedHex("odd-length hex input")


def _unique_keys(pairs: list) -> dict:
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"duplicate key {next(k for k in keys if keys.count(k) > 1)!r}")
    return doc


def json_document(data: bytes, origin: str, error: type[EawardError]) -> dict:
    """The JSON object in the UTF-8 bytes data, read from origin (a path or
    URL). Anything else, or an object that repeats a key, raises error,
    naming origin."""
    import json  # here, so that commands that read no JSON never load it

    try:
        doc = json.loads(data.decode("utf-8"), object_pairs_hook=_unique_keys)
    except (ValueError, RecursionError) as exc:
        raise error(f"unparseable JSON in {origin}: {exc}") from exc
    if type(doc) is not dict:
        raise error(f"{origin} does not hold a JSON object")
    return doc


def json_text(path: str, text: str, parse):
    """parse(text) for the text field at path; a failure raises ValueError naming path."""
    try:
        return parse(text)
    except (ValueError, EawardError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


_REQUIRED = object()


def json_field(doc, where: str, key: str, kind: type, default=_REQUIRED):
    """doc[key], where doc is the JSON object at path prefix where ("" for a
    whole document, "parties[0]." for the first party). Refused with
    TypeError naming the field's path when doc is not an object, the key is
    missing, or the value's type is not exactly kind (so a JSON boolean is
    not an integer and 2.0 is not 2). Given a default, the key may be absent
    and then reads as the default; a default of None also accepts null."""
    if type(doc) is not dict:
        raise TypeError(f"{where[:-1]} must be of type dict, got {doc!r}")
    if default is _REQUIRED and key not in doc:
        raise TypeError(f"{where}{key} is missing")
    value = doc.get(key, default)
    if value is None and default is None:
        return None
    if type(value) is not kind:
        raise TypeError(f"{where}{key} must be of type {kind.__name__}, got {value!r}")
    return value


def replace_file(path, data: bytes, mode: int = 0o600) -> None:
    """Write data to path, with these permission bits, through a staging file
    in path's directory, renamed into place: a reader sees the old file or
    the whole new one, and a failed write removes the staging file. There is
    no fsync, as the object store writes on every anchoring; each reader
    checks the bytes again instead."""
    import os
    import tempfile  # here, so that commands that write no file never load it

    try:
        fd, staging = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".staging-")
    except OSError as exc:  # named by the file asked for, not the staging file
        raise type(exc)(exc.errno, exc.strerror, str(path)) from None
    try:
        with os.fdopen(fd, "wb") as out:
            os.fchmod(out.fileno(), mode)
            out.write(data)
        os.replace(staging, path)
    except BaseException:
        if os.path.exists(staging):
            os.unlink(staging)
        raise
