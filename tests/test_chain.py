import contextlib
import json
import shutil
import socket
import ssl
import time
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest

from eaward import __version__, chain
from eaward.chain import (
    ChainError,
    ChainSource,
    MalformedStatus,
    NotFound,
    TxStatus,
    TxidMismatch,
    broadcast,
    format_time,
    get_transaction,
    get_tx_status,
)
from eaward.crypto import TESTNET
from eaward.tx import Script, Transaction, TxInput, TxOutput, Txid, compute_txid

from conftest import (
    BLOCK_TIME,
    CHAIN_DIR,
    DEMO_TXID,
    MALFORMED_LIVE_STATUS,
    REAL_TXID,
    SUPERFLUOUS_DEMO_HEX,
    live_status_responses,
)


def _demo_txid() -> Txid:
    return Txid.from_hex(DEMO_TXID)


def _tiny_tx(tag: bytes) -> Transaction:
    return Transaction(
        2,
        (TxInput(Txid(bytes(32)), 0, Script(b"")),),
        (TxOutput(0, Script(b"\x6a" + bytes([len(tag)]) + tag)),),
    )


# ---------------------------------------------------------------------------
# Fixture mode
# ---------------------------------------------------------------------------

def test_fixture_get_transaction(fixture_source):
    tx = get_transaction(fixture_source, _demo_txid())
    assert compute_txid(tx).hex() == DEMO_TXID
    assert tx.to_hex() == (CHAIN_DIR / f"{DEMO_TXID}.hex").read_text().strip()


def test_fixture_unknown_txid(fixture_source):
    with pytest.raises(NotFound):
        get_transaction(fixture_source, Txid(b"\xab" * 32))


def test_real_transaction_absent_is_not_found(fixture_source):
    # The original explorer bytes are not bundled; requesting them reports
    # honestly instead of serving substitute bytes under that txid.
    if (CHAIN_DIR / f"{REAL_TXID}.hex").exists():
        pytest.skip("real transaction fixture present")
    with pytest.raises(NotFound):
        get_transaction(fixture_source, Txid.from_hex(REAL_TXID))


def test_fixture_non_utf8_hex_is_txid_mismatch(tmp_path):
    (tmp_path / f"{DEMO_TXID}.hex").write_bytes(b"\xff\xfe0200\x80")
    source = ChainSource("fixture", TESTNET, fixture_root=tmp_path)
    with pytest.raises(TxidMismatch):
        get_transaction(source, _demo_txid())


def test_fixture_superfluous_witness_record_is_txid_mismatch(tmp_path):
    # The demo's bytes with an empty witness hash, stripped, to its txid; a
    # source serving that second form is refused like any unparseable one.
    (tmp_path / f"{DEMO_TXID}.hex").write_text(SUPERFLUOUS_DEMO_HEX + "\n")
    source = ChainSource("fixture", TESTNET, fixture_root=tmp_path)
    with pytest.raises(TxidMismatch,
                       match="^source returned unparseable bytes: superfluous witness record$"):
        get_transaction(source, _demo_txid())


def test_fixture_corruption_detected(tmp_path):
    shutil.copytree(CHAIN_DIR, tmp_path / "chain")
    path = tmp_path / "chain" / f"{DEMO_TXID}.hex"
    text = path.read_text()
    flip = "1" if text[100] != "1" else "2"
    path.write_text(text[:100] + flip + text[101:])
    source = ChainSource("fixture", TESTNET, fixture_root=tmp_path / "chain")
    with pytest.raises(TxidMismatch):
        get_transaction(source, _demo_txid())


def test_fixture_removed_after_a_probe_is_not_found(tmp_path, monkeypatch, demo_tx_hex):
    # An existence check answers for a moment already past: the read decides.
    # A status sidecar removed so is the unconfirmed status of a known hex.
    source = ChainSource("fixture", TESTNET, fixture_root=tmp_path)
    monkeypatch.setattr(Path, "exists", lambda self, *args, **kwargs: True)
    with pytest.raises(NotFound, match=f"^no fixture for {DEMO_TXID}$"):
        get_transaction(source, _demo_txid())
    (tmp_path / f"{DEMO_TXID}.hex").write_text(demo_tx_hex)
    assert get_tx_status(source, _demo_txid()) == TxStatus(None, 0)


def test_fixture_status_golden(fixture_source):
    status = get_tx_status(fixture_source, _demo_txid())
    assert status.block_time == BLOCK_TIME
    assert status.block_time.tzinfo == timezone.utc
    assert status.confirmations == 1000
    assert status.block_hash


def test_fixture_status_unknown(fixture_source):
    with pytest.raises(NotFound):
        get_tx_status(fixture_source, Txid(b"\xcd" * 32))


@pytest.mark.parametrize("text", [
    '{"blockTime": "28/03/2019 15:46", "confirmations": 1000}',
    '{"blockTime": 1553788013, "confirmations": 1000}',
    '{"blockTime": "2019-03-28T15:46:53Z", "confirmations": "many"}',
    '{"blockTime": ',
    '[1000]',
    b'{"blockTime": "\xff"}',
    '{"blockTime": "2019-03-28T15:46:53Z", "confirmations": 1e999}',
    '{"blockTime": "2019-03-28T15:46:53Z", "confirmations": true}',
    '{"blockTime": "2019-03-28T15:46:53Z", "confirmations": 2.7}',
    '{"blockTime": "2019-03-28T15:46:53Z", "confirmations": null}',
    '{"blockTime": "", "confirmations": 0}',
    '{"blockTime": "2019-03-28T15:46:53Z", "confirmations": 3, "blockHash": ["aa"]}',
    '{"blockTime": "2019-03-28T15:46:53Z", "confirmations": 3, "blockHash": 5}',
    '{"confirmations": -5}',
    '{"confirmations": 3}',
    '{"blockTime": "2019-03-28T15:46:53Z", "confirmations": 0}',
    '{"blockTime": "2019-13-01T00:00:00Z", "confirmations": 3}',
    '{"blockTime": "2020-02-29T23:59:60Z", "confirmations": 3}',
    '{"blockTime": "2019-3-28T15:46:53Z", "confirmations": 3}',
    '{"blockTime": "2019-03-28T15:46:53Z\\n", "confirmations": 3}',
    '{"blockTime": "2019-03-28T15:46:53z", "confirmations": 3}',
    '{"blockTime": "\\u0662019-03-28T15:46:53Z", "confirmations": 3}',
    '{"blockTime": "2019-03-28T15:46:+3Z", "confirmations": 3}',
], ids=["blocktime_format", "blocktime_type", "confirmations", "json", "not_object",
        "not_utf8", "confirmations_overflow", "confirmations_bool", "confirmations_float",
        "confirmations_null", "blocktime_empty", "blockhash_list", "blockhash_int",
        "confirmations_negative", "confirmed_without_blocktime",
        "blocktime_without_confirmations", "blocktime_month_13", "blocktime_second_60",
        "blocktime_1_digit_month", "blocktime_trailing_newline", "blocktime_lowercase_z",
        "blocktime_arabic_indic_digit", "blocktime_signed_field"])
def test_fixture_malformed_status_is_typed(tmp_path, text):
    path = tmp_path / f"{DEMO_TXID}.status"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    source = ChainSource("fixture", TESTNET, fixture_root=tmp_path)
    with pytest.raises(MalformedStatus) as excinfo:
        get_tx_status(source, _demo_txid())
    assert str(path) in str(excinfo.value)


@pytest.mark.parametrize("text", [
    '{}',
    '{"confirmations": 0}',
    '{"blockTime": null, "confirmations": 0, "blockHash": null}',
], ids=["empty", "confirmations_only", "nulls"])
def test_fixture_status_optional_fields(tmp_path, text):
    (tmp_path / f"{DEMO_TXID}.status").write_text(text)
    source = ChainSource("fixture", TESTNET, fixture_root=tmp_path)
    assert get_tx_status(source, _demo_txid()) == TxStatus(None, 0, None)


def test_chain_and_store_share_one_not_found():
    from eaward import anchor, errors
    assert NotFound is anchor.NotFound is errors.NotFound


def test_get_transaction_parses_once(fixture_source, monkeypatch):
    import eaward.chain as chain
    calls = []
    real = chain.parse_transaction
    monkeypatch.setattr(chain, "parse_transaction",
                        lambda text: calls.append(text) or real(text))
    assert compute_txid(get_transaction(fixture_source, _demo_txid())).hex() == DEMO_TXID
    assert len(calls) == 1


def test_broadcast_roundtrip_and_idempotence(tmp_path):
    source = ChainSource("fixture", TESTNET, fixture_root=tmp_path)
    tx = _tiny_tx(b"mempool entry")
    txid = broadcast(source, tx.to_hex())
    assert txid == compute_txid(tx)
    assert get_transaction(source, txid) == tx
    # unconfirmed: known hex, no status sidecar
    status = get_tx_status(source, txid)
    assert status.confirmations == 0 and status.block_time is None
    # The first broadcast's file stays, whatever spelling of the bytes comes next.
    again = broadcast(source, tx.to_hex().upper())
    assert again == txid
    assert list(tmp_path.iterdir()) == [tmp_path / f"{txid.hex()}.hex"]
    assert (tmp_path / f"{txid.hex()}.hex").read_text() == tx.to_hex() + "\n"


def test_broadcast_rejects_malformed_before_transport():
    def explode(*args, **kwargs):
        raise AssertionError("transport must not be reached")

    source = ChainSource("live", TESTNET, endpoint="http://example.invalid", http=explode)
    with pytest.raises(ChainError, match="unparseable transaction: needed"):
        broadcast(source, "deadbeef")


@pytest.mark.parametrize("hex_text", ["zz00", "02 00"])
def test_broadcast_non_hex_is_rejected(tmp_path, hex_text):
    with pytest.raises(ChainError, match="unparseable transaction: non-hex"):
        broadcast(ChainSource("fixture", TESTNET, fixture_root=tmp_path), hex_text)


def test_source_validation():
    with pytest.raises(ChainError):
        ChainSource("live", TESTNET)
    with pytest.raises(ChainError):
        ChainSource("fixture", TESTNET)
    with pytest.raises(ChainError):
        ChainSource("carrier-pigeon", TESTNET, endpoint="x")


@pytest.mark.parametrize("timeout", [0, -1.0, float("nan"), float("inf")])
def test_source_rejects_bad_timeout(timeout):
    with pytest.raises(ChainError, match="timeout"):
        ChainSource("live", TESTNET, endpoint="http://x", timeout=timeout)


def test_format_time_is_utc():
    noon_at_utc_plus_2 = datetime(2020, 1, 1, 12, 0, 0,
                                  tzinfo=timezone(timedelta(hours=2)))
    assert format_time(noon_at_utc_plus_2) == "2020-01-01T10:00:00Z"


def test_status_invariant():
    with pytest.raises(ChainError):
        TxStatus(BLOCK_TIME, 0)
    with pytest.raises(ChainError):
        TxStatus(None, 3)


def test_status_keeps_the_utc_instant():
    noon_at_utc_plus_2 = datetime(2020, 1, 1, 12, 0, 0,
                                  tzinfo=timezone(timedelta(hours=2)))
    status = TxStatus(noon_at_utc_plus_2, 3)
    assert status.block_time == noon_at_utc_plus_2
    assert status.block_time.tzinfo is timezone.utc and status.block_time.hour == 10
    with pytest.raises(MalformedStatus, match="no time zone"):
        TxStatus(datetime(2020, 1, 1, 12, 0, 0), 3)


def test_parse_time_reads_only_the_canonical_form():
    assert chain._parse_time("2019-03-28T15:46:53Z") == datetime(
        2019, 3, 28, 15, 46, 53, tzinfo=timezone.utc)
    with pytest.raises(ValueError,
                       match=r"^blockTime '2019-3-28T15:46:53Z' is not YYYY-MM-DDTHH:MM:SSZ$"):
        chain._parse_time("2019-3-28T15:46:53Z")
    with pytest.raises(ValueError, match="^month must be in 1..12$"):
        chain._parse_time("2019-13-01T00:00:00Z")


# ---------------------------------------------------------------------------
# Live mode through the injected transport
# ---------------------------------------------------------------------------

def _live(responses: dict, posts: list | None = None) -> ChainSource:
    def fake_http(url, timeout, body=None):
        assert timeout == 10.0
        if body is None:
            return responses[url]
        posts.append((url, body))
        return 200, b"ok"

    return ChainSource("live", TESTNET, endpoint="http://x", http=fake_http)


def test_live_get_transaction_verified(demo_tx_hex):
    url = f"http://x/tx/{DEMO_TXID}/hex"
    source = _live({url: (200, demo_tx_hex.encode())})
    assert get_transaction(source, _demo_txid()).to_hex() == demo_tx_hex


def test_live_404_is_not_found():
    url = f"http://x/tx/{DEMO_TXID}/hex"
    source = _live({url: (404, b"not found")})
    with pytest.raises(NotFound):
        get_transaction(source, _demo_txid())


def test_live_wrong_bytes_is_txid_mismatch(demo_tx_hex):
    other = Txid(b"\x99" * 32)
    url = f"http://x/tx/{other.hex()}/hex"
    source = _live({url: (200, demo_tx_hex.encode())})
    with pytest.raises(TxidMismatch):
        get_transaction(source, other)


def test_live_http_error_is_transport_error():
    url = f"http://x/tx/{DEMO_TXID}/hex"
    source = _live({url: (500, b"boom")})
    with pytest.raises(ChainError, match="source returned HTTP 500"):
        get_transaction(source, _demo_txid())


def test_live_status_404_is_not_found():
    source = _live({f"http://x/tx/{DEMO_TXID}/status": (404, b"not found")})
    with pytest.raises(NotFound) as caught:
        get_tx_status(source, _demo_txid())
    assert str(caught.value) == f"source has no transaction {DEMO_TXID}"


def test_live_status_http_error_is_transport_error():
    # The body is not read: it may be an error page of any shape.
    source = _live({f"http://x/tx/{DEMO_TXID}/status": (503, b'{"confirmed": false}')})
    with pytest.raises(ChainError) as caught:
        get_tx_status(source, _demo_txid())
    assert str(caught.value) == "source returned HTTP 503"


@pytest.mark.parametrize("tip,confirmations", [(b"1500099", 100), (b"1500000", 1)])
def test_live_status_confirmed(tip, confirmations):
    status_doc = {"confirmed": True, "block_height": 1_500_000,
                  "block_time": 1553788013, "block_hash": "aa" * 32}
    source = _live({
        f"http://x/tx/{DEMO_TXID}/status": (200, json.dumps(status_doc).encode()),
        "http://x/blocks/tip/height": (200, tip),
    })
    status = get_tx_status(source, _demo_txid())
    assert status.confirmations == confirmations
    assert status.block_time == BLOCK_TIME
    assert status.block_hash == "aa" * 32


@pytest.mark.parametrize("doc,tip", MALFORMED_LIVE_STATUS.values(),
                         ids=MALFORMED_LIVE_STATUS.keys())
def test_live_malformed_status_is_typed(doc, tip):
    source = _live(live_status_responses(doc, tip))
    with pytest.raises(MalformedStatus) as caught:
        get_tx_status(source, _demo_txid())
    assert "Error(" not in str(caught.value)
    assert "http://x" in str(caught.value)  # the source that answered


def test_live_status_unconfirmed():
    source = _live({
        f"http://x/tx/{DEMO_TXID}/status": (200, json.dumps({"confirmed": False}).encode()),
    })
    status = get_tx_status(source, _demo_txid())
    assert status.confirmations == 0 and status.block_time is None


def test_live_broadcast_posts_hex():
    posts = []
    source = _live({}, posts)
    tx = _tiny_tx(b"live broadcast")
    txid = broadcast(source, tx.to_hex())
    assert txid == compute_txid(tx)
    assert posts == [("http://x/tx", tx.to_hex().encode("ascii"))]


def test_live_connection_failure_is_transport_error():
    # Default transport against a closed local port; no external egress.
    source = ChainSource("live", TESTNET, endpoint="http://127.0.0.1:9",
                         timeout=0.5)
    with pytest.raises(ChainError, match=f"GET http://127.0.0.1:9/tx/{DEMO_TXID}/hex: "):
        get_transaction(source, _demo_txid())


# ---------------------------------------------------------------------------
# The default transport against a loopback explorer
# ---------------------------------------------------------------------------

def test_default_transport_returns_status_and_body(explorer, demo_tx_hex):
    explorer.routes["/tx"] = (200, DEMO_TXID.encode())
    assert chain._http(f"{explorer.url}/tx/{DEMO_TXID}/hex", 2.5) == (200, demo_tx_hex.encode())
    assert chain._http(f"{explorer.url}/tx", 2.5, b"0200") == (200, DEMO_TXID.encode())
    assert chain._http(f"{explorer.url}/nowhere", 2.5) == (404, b"not found")
    (get, _, get_headers, get_body), (post, _, post_headers, post_body), _ = explorer.received
    assert (get, get_body, get_headers["User-Agent"]) == ("GET", b"", f"eaward/{__version__}")
    assert "Content-Type" not in get_headers
    assert (post, post_body, post_headers["User-Agent"]) == ("POST", b"0200",
                                                             f"eaward/{__version__}")
    assert post_headers["Content-Type"] == "text/plain"


def test_default_transport_request_errors_are_transport_errors():
    # A closed local port and a URL with no scheme; no external egress.
    with pytest.raises(ChainError, match="^POST http://127.0.0.1:9/tx: "):
        chain._http("http://127.0.0.1:9/tx", 1.0, b"00")
    with pytest.raises(ChainError, match="^GET x/tx/ab/hex: unknown url type"):
        chain._http("x/tx/ab/hex", 1.0)


def test_default_transport_holds_a_tls_handshake_to_the_deadline():
    # A listener that never answers the client's hello; the kernel accepts
    # the connection, so only the handshake waits.
    with socket.create_server(("127.0.0.1", 0)) as silent:
        url = f"https://127.0.0.1:{silent.getsockname()[1]}/tx/ab/hex"
        start = time.monotonic()
        with pytest.raises(ChainError) as refused:
            chain._http(url, 0.5)
        assert time.monotonic() - start < 2
    assert str(refused.value) == f"GET {url}: no complete answer within 0.5 s"


# A self-signed certificate for 127.0.0.1, valid until 2126, made with
#   openssl req -x509 -newkey ec -pkeyopt ec_paramgen_curve:prime256v1 -nodes \
#     -days 36500 -subj /CN=localhost -addext subjectAltName=IP:127.0.0.1 \
#     -keyout localhost.key -out localhost.crt
_TLS = Path(__file__).resolve().parent / "tls"


def test_default_transport_holds_drip_fed_tls_headers_to_the_deadline(explorer, monkeypatch):
    def drip(handler):
        handler.wfile.write(b"HTTP/1.1 200 OK\r\nX-Slow: ")
        with contextlib.suppress(OSError):  # until the client hangs up
            for _ in range(100):
                handler.wfile.write(b"a")
                time.sleep(0.05)

    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(_TLS / "localhost.crt", _TLS / "localhost.key")
    explorer.socket = context.wrap_socket(explorer.socket, server_side=True)
    explorer.routes["/drip"] = drip
    monkeypatch.setenv("SSL_CERT_FILE", str(_TLS / "localhost.crt"))
    url = f"https://127.0.0.1:{explorer.server_port}"
    assert chain._http(f"{url}/blocks/tip/height", 2.5) == explorer.routes["/blocks/tip/height"]
    start = time.monotonic()
    with pytest.raises(ChainError) as refused:
        chain._http(f"{url}/drip", 0.5)
    assert time.monotonic() - start < 2
    assert str(refused.value) == f"GET {url}/drip: no complete answer within 0.5 s"


def test_default_transport_refuses_short_answer(explorer):
    explorer.routes["/short"] = (200, b"0200", {"Content-Length": "100"})
    with pytest.raises(ChainError, match=r"^GET \S+/short: IncompleteRead\(4 bytes read"):
        chain._http(f"{explorer.url}/short", 2.5)


def test_default_transport_reads_a_chunked_answer(explorer):
    def chunked(handler):
        handler.protocol_version = "HTTP/1.1"
        handler.send_response(200)
        handler.send_header("Transfer-Encoding", "chunked")
        handler.send_header("Connection", "close")
        handler.end_headers()
        handler.wfile.write(b"2\r\n02\r\n2\r\n00\r\n0\r\n\r\n")

    explorer.routes["/chunked"] = chunked
    assert chain._http(f"{explorer.url}/chunked", 2.5) == (200, b"0200")

