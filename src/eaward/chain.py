"""Transaction retrieval: explorer-style REST endpoint or offline fixtures.

Nothing a source returns is trusted as-is: fetched bytes are re-hashed and
must match the requested txid before they leave this module. Fixture mode is
fully deterministic and offline; the whole test suite runs on it.

Fixture layout: <root>/<txid>.hex (raw hex) and <root>/<txid>.status
(JSON: blockTime, confirmations, blockHash). A broadcast writes the
<txid>.hex file unless it already holds that transaction.
"""

from __future__ import annotations

import math
import time
from collections import namedtuple
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .crypto import Network, TESTNET
from .errors import (EawardError, MalformedHex, NotFound, json_document, json_field,
                     replace_file)
from .tx import Transaction, Txid, TxError, compute_txid, parse_transaction


class ChainError(EawardError):
    pass


class TxidMismatch(ChainError):
    pass


class MalformedStatus(ChainError):
    """A status document or field the source returned cannot be read."""


DEFAULT_TIMEOUT = 10.0


# The longest answer an explorer may give to any call below: the hex of the
# largest transaction a block can hold (4,000,000 bytes) and a line ending.
MAX_BODY = 2 * 4_000_000 + 1


# urllib is imported only when a live request is sent: fixture mode and the
# offline commands never need it.
def _http(url: str, timeout: float, body: bytes | None = None) -> tuple[int, bytes]:
    """(HTTP status, body) of a POST of body to url, or of a GET when body is
    None. timeout is a deadline for the whole request, redirects included:
    connecting, a TLS handshake and each read wait only for the time left
    (a name lookup is not bounded). An answer over MAX_BODY bytes is refused.
    Only http and https are fetched; proxies come from the environment."""
    import socket
    import ssl
    from http.client import HTTPConnection, HTTPException, HTTPSConnection, IncompleteRead
    from urllib.request import (HTTPDefaultErrorHandler, HTTPError, HTTPErrorProcessor,
                                HTTPHandler, HTTPRedirectHandler, HTTPSHandler,
                                OpenerDirector, ProxyHandler, Request, UnknownHandler,
                                getproxies)
    from urllib.parse import urlsplit

    def left() -> float:
        seconds = deadline - time.monotonic()
        if seconds <= 0:
            raise TimeoutError("timed out")
        return seconds

    class Held:
        """A socket that gives each read only the time left."""

        def recv_into(self, *args):
            self.settimeout(left())
            return super().recv_into(*args)

    class HeldSocket(Held, socket.socket):
        pass

    class HeldTLSSocket(Held, ssl.SSLSocket):
        pass

    def connect(address, _timeout, source_address):
        plain = socket.create_connection(address, left(), source_address)
        sock = HeldSocket(plain.family, plain.type, plain.proto, plain.detach())
        sock.settimeout(left())  # for a TLS handshake and sending the request
        return sock

    def held(http_class):
        def connection(host, **kwargs):
            conn = http_class(host, **kwargs)
            conn._create_connection = connect
            return conn
        return connection

    class Http(HTTPHandler):
        def http_open(self, req):
            return self.do_open(held(HTTPConnection), req)

    class Https(HTTPSHandler):
        def https_open(self, req):
            context = ssl._create_default_https_context()  # the one urllib would use
            context.sslsocket_class = HeldTLSSocket
            return self.do_open(held(HTTPSConnection), req, context=context)

    class Redirects(HTTPRedirectHandler):
        # urllib refuses a redirect to file:// but follows one to ftp://;
        # both are refused here, with the reason urllib gives for file://.
        def redirect_request(self, req, fp, code, msg, headers, newurl):
            if urlsplit(newurl).scheme not in ("http", "https"):
                raise HTTPError(newurl, code,
                                f"{msg} - Redirection to url '{newurl}' is not allowed",
                                headers, fp)
            return super().redirect_request(req, fp, code, msg, headers, newurl)

    where = f"{'GET' if body is None else 'POST'} {url}"
    opener = OpenerDirector()
    for handler in (ProxyHandler({k: v for k, v in getproxies().items()
                                  if k in ("http", "https")}),
                    UnknownHandler(), Http(), Https(), HTTPDefaultErrorHandler(),
                    Redirects(), HTTPErrorProcessor()):
        opener.add_handler(handler)
    deadline = time.monotonic() + timeout
    try:
        request = Request(url, body, {"User-Agent": f"eaward/{__version__}"})
        if body is not None:
            request.add_header("Content-Type", "text/plain")
        try:
            answer = opener.open(request, timeout=timeout)
        except HTTPError as error:  # an error status is an answer too
            answer = error
        with answer:
            if 300 <= answer.status < 400:  # a redirect the handler did not follow
                raise ChainError(f"{where}: {answer.reason}")
            chunks, size = [], 0
            while chunk := answer.read1(65536):
                size += len(chunk)
                if size > MAX_BODY:
                    raise ChainError(f"{where}: answer exceeds {MAX_BODY} bytes")
                chunks.append(chunk)
            if answer.length:  # closed before Content-Length bytes came
                raise IncompleteRead(b"".join(chunks), answer.length)
        return answer.status, b"".join(chunks)
    except (OSError, ValueError, HTTPException) as exc:
        reason = getattr(exc, "reason", exc)
        if isinstance(reason, TimeoutError):
            reason = f"no complete answer within {timeout:g} s"
        raise ChainError(f"{where}: {reason}") from exc


class ChainSource:
    """Where transactions come from: mode "live" (endpoint) or "fixture"
    (fixture_root). http is the injection seam for live-mode tests;
    production code leaves it alone."""

    def __init__(self, mode: str, network: Network = TESTNET, endpoint: str | None = None,
                 fixture_root: Path | None = None, timeout: float = DEFAULT_TIMEOUT,
                 http=_http):
        if not 0 < timeout < math.inf:  # also false for NaN
            raise ChainError(f"timeout must be a positive number of seconds, "
                             f"got {timeout!r}")
        if mode == "live":
            if not endpoint:
                raise ChainError("live source needs an endpoint URL")
            endpoint = endpoint.rstrip("/")
        elif mode == "fixture":
            if not fixture_root:
                raise ChainError("fixture source needs a fixture root directory")
            fixture_root = Path(fixture_root)
        else:
            raise ChainError(f"unknown source mode {mode!r}")
        self.mode = mode
        self.network = network
        self.endpoint = endpoint
        self.fixture_root = fixture_root
        self.timeout = timeout
        self.http = http


class TxStatus(namedtuple("TxStatus", "block_time confirmations block_hash")):
    """block_time is an aware datetime, kept as its UTC instant, so every
    rendering of it names the same time."""

    __slots__ = ()

    def __new__(cls, block_time: datetime | None, confirmations: int,
                block_hash: str | None = None):
        if confirmations < 0:
            raise MalformedStatus(f"confirmations is negative: {confirmations}")
        if (confirmations > 0) != (block_time is not None):
            raise MalformedStatus("block_time present iff confirmations > 0")
        if block_time is not None:
            if block_time.utcoffset() is None:
                raise MalformedStatus(f"block_time has no time zone: {block_time}")
            block_time = block_time.astimezone(timezone.utc)
        return super().__new__(cls, block_time, confirmations, block_hash)


_TIME_FORMAT = "%Y-%m-%dT%H:%M:%SZ"


def _parse_time(text: str) -> datetime:
    """The UTC instant of a YYYY-MM-DDTHH:MM:SSZ timestamp (ASCII digits,
    every field full width). datetime's ValueError names a field out of
    range.

    The fields are cut at fixed offsets and given to datetime itself, not
    read by datetime.strptime, whose first call imports the _strptime module
    and with it locale and calendar: certify and anchor verify read a block
    time on every run."""
    if len(text) == 20 and text.isascii() and text[4::3] == "--T::Z":
        fields = text[:4], text[5:7], text[8:10], text[11:13], text[14:16], text[17:19]
        if "".join(fields).isdigit():
            return datetime(*map(int, fields), tzinfo=timezone.utc)
    raise ValueError(f"blockTime {text!r} is not YYYY-MM-DDTHH:MM:SSZ")


def format_time(when: datetime) -> str:
    return when.astimezone(timezone.utc).strftime(_TIME_FORMAT)


def get_transaction(src: ChainSource, txid: Txid) -> Transaction:
    """The transaction txid, verified client-side to hash back to txid."""
    if src.mode == "fixture":
        try:
            body = (src.fixture_root / f"{txid.hex()}.hex").read_bytes()
        except (FileNotFoundError, NotADirectoryError):
            raise NotFound(f"no fixture for {txid.hex()}") from None
    else:
        status, body = src.http(f"{src.endpoint}/tx/{txid.hex()}/hex", src.timeout)
        if status == 404:
            raise NotFound(f"source has no transaction {txid.hex()}")
        if status != 200:
            raise ChainError(f"source returned HTTP {status}")

    try:
        parsed = parse_transaction(body.decode("ascii", errors="replace"))
    except (MalformedHex, TxError) as exc:
        raise TxidMismatch(f"source returned unparseable bytes: {exc}") from exc
    actual = compute_txid(parsed)
    if actual.hash != txid.hash:
        raise TxidMismatch(
            f"requested {txid.hex()} but source bytes hash to {actual.hex()}")
    return parsed


def get_tx_status(src: ChainSource, txid: Txid) -> TxStatus:
    if src.mode == "fixture":
        status_path = src.fixture_root / f"{txid.hex()}.status"
        try:
            body = status_path.read_bytes()
        except (FileNotFoundError, NotADirectoryError):
            if (src.fixture_root / f"{txid.hex()}.hex").exists():
                return TxStatus(None, 0)  # known but unconfirmed
            raise NotFound(f"no status fixture for {txid.hex()}") from None
        doc = json_document(body, str(status_path), MalformedStatus)
        try:
            block_time = json_field(doc, "", "blockTime", str, None)
            return TxStatus(
                None if block_time is None else _parse_time(block_time),
                json_field(doc, "", "confirmations", int, 0),
                json_field(doc, "", "blockHash", str, None),
            )
        except (TypeError, ValueError, MalformedStatus) as exc:
            raise MalformedStatus(f"bad field in {status_path}: {exc}") from exc

    status, body = src.http(f"{src.endpoint}/tx/{txid.hex()}/status", src.timeout)
    if status == 404:
        raise NotFound(f"source has no transaction {txid.hex()}")
    if status != 200:
        raise ChainError(f"source returned HTTP {status}")
    doc = json_document(body, f"{src.endpoint}/tx/{txid.hex()}/status", MalformedStatus)
    try:
        confirmed = json_field(doc, "", "confirmed", bool, False)
    except TypeError as exc:
        raise MalformedStatus(f"bad status from {src.endpoint}: {exc}") from exc
    if not confirmed:
        return TxStatus(None, 0)
    tip_status, tip_body = src.http(f"{src.endpoint}/blocks/tip/height", src.timeout)
    if tip_status != 200:
        raise ChainError(f"tip height query returned HTTP {tip_status}")
    try:
        confirmations = int(tip_body) - json_field(doc, "", "block_height", int) + 1
        block_time = datetime.fromtimestamp(json_field(doc, "", "block_time", int),
                                            tz=timezone.utc)
        block_hash = json_field(doc, "", "block_hash", str, None)
    except (TypeError, ValueError, OverflowError, OSError) as exc:
        raise MalformedStatus(f"bad status from {src.endpoint}: {exc}") from exc
    if confirmations < 1:
        raise MalformedStatus(
            f"tip height from {src.endpoint} is below the transaction's block height")
    return TxStatus(block_time, confirmations, block_hash)


def broadcast(src: ChainSource, hex_text: str) -> Txid:
    """Submit raw hex; malformed transactions are rejected before transport."""
    try:
        parsed = parse_transaction(hex_text)
    except (MalformedHex, TxError) as exc:
        raise ChainError(f"unparseable transaction: {exc}") from exc
    txid = compute_txid(parsed)

    if src.mode == "fixture":
        try:
            get_transaction(src, txid)
            return txid  # a sidecar that holds this transaction stays
        except (NotFound, TxidMismatch):
            pass
        # Staged, so no reader sees a half-written sidecar, and one that an
        # interrupted write left is replaced.
        src.fixture_root.mkdir(parents=True, exist_ok=True)
        replace_file(src.fixture_root / f"{txid.hex()}.hex",
                     (hex_text.strip() + "\n").encode("ascii"))
        return txid

    status, body = src.http(f"{src.endpoint}/tx", src.timeout, hex_text.encode("ascii"))
    if status != 200:
        raise ChainError(f"source refused broadcast: HTTP {status} {body[:200]!r}")
    return txid
