"""Shared golden vectors and fixtures.

Vector provenance: published worked-example constants (redeem script,
addresses, payload, attestation signature, block time) plus values
frozen after computing them with an independent oracle (affine-math point
recovery and reference digests cross-checked against officially published
test vectors).
"""

from __future__ import annotations

import contextlib
import http.server
import io
import json
import os
import subprocess
import sys
import tempfile
import threading
from datetime import datetime, timezone
from pathlib import Path
from types import SimpleNamespace

import pytest

import eaward
from eaward.attestation import ArbitrationAgreement, load_agreement
from eaward.chain import ChainSource, TxStatus, get_transaction, get_tx_status
from eaward.cli import main
from eaward.crypto import PrivateKey, PublicKey, TESTNET, sha256
from eaward.escrow import EscrowPolicy
from eaward.metadata import Role
from eaward.tx import Transaction, Txid, parse_transaction

# perfbench's independent implementation from the public specifications,
# and the one escrow builder written on it.
from world import World, build_world, file_world, load, refcrypto

FIXTURES = Path(__file__).parent / "fixtures"
CHAIN_DIR = FIXTURES / "chain"

# --- published worked-example constants ---
PK1_HEX = "0279aac3e06ee2e54ab5952a75fe742883d5ecaa2da33dfeb60a6940a435ed5399"
PK2_HEX = "02f90212cad84ab0875ef34d17c09e5fecff34f25786f99ddb5f4bdca5c599707b"
PK3_HEX = "03d3009499b501c7be0f4f7d3d8f45af4d2dd9104070e7dfedb5e57949a10a09af"

REDEEM_HEX = f"5221{PK1_HEX}21{PK2_HEX}21{PK3_HEX}53ae"

ADDR_A = "mzV1dsMdDjtLSfRa2rPrE2oJpRtynKkjJX"
ADDR_C = "mpGZniUmoCemQzRbazvdgzGkmjUQ3fZN8L"
ADDR_R = "n2dSPmt5cv2hFNfQqoZtvRJ6bZmypNBSvH"
GOLDEN_ADDRESSES = [ADDR_A, ADDR_C, ADDR_R]

PAYLOAD_HEX = (
    "412d4a6f686e536d6974682d4b6b6a4a5820432d41636d652d665a4e384c20522d42616b"
    "65722d4e42537648204c6f6e646f6e20436661376a6168445444566a5a774b55706b3777"
    "317970786738733d"
)
METADATA_TEXT = "A-JohnSmith-KkjJX C-Acme-fZN8L R-Baker-NBSvH London Cfa7jahDTDVjZwKUpk7w1ypxg8s="
ATTEST_MESSAGE = "A-JohnSmith-KkjJX C-Acme-fZN8L R-Baker-NBSvH London"
SIGNATURE_B64 = "IO0vDf3ZqfRZ8FGGsnzzkMc65YQWIWb2+YqcQ9j/APK2QN1E2TTV/3xPkThhCfa7jahDTDVjZwKUpk7w1ypxg8s="
FRAGMENT = "Cfa7jahDTDVjZwKUpk7w1ypxg8s="

REAL_TXID = "fa65bc5fa0ee39e012282701a4ce378474183a330487e839cd1b65b398d7646e"
BLOCK_TIME_TEXT = "2019-03-28T15:46:53Z"
BLOCK_TIME = datetime(2019, 3, 28, 15, 46, 53, tzinfo=timezone.utc)

# --- values frozen from the independent oracle ---
P2SH_TESTNET = "2N6CGWKdxuvxNV8BkhWSyc52DSp16Ex9Jqd"
P2SH_MAINNET = "3Ee4SahwJUT2HLZD2Nq6z82xETnvSmPgwk"
ZERO_PAYLOAD_ADDR = "mfWxJ45yp2SFn7UciZyNpvDKrzbhyfKrY8"
ADDR_C_HASH160 = "6000858c20c2876baa9ce534740827f1d796ff2e"
AWARD_SHA256 = "a91185bd4c5f95a29ebddffffccb15011125b2c785e491345829e07886a54143"

# --- frozen synthetic twin (see scripts/build_demo_fixture.py) ---
DEMO_TXID = "98cef737a188c6a2f6645b2af052ca38d4b40b42f4032454826e7a98a5c5806e"

REAL_TX_FIXTURE = CHAIN_DIR / f"{REAL_TXID}.hex"

# The demo transaction's second byte form, which Bitcoin Core refuses as a
# "Superfluous witness record" (BIP 144): its bytes with the marker and flag
# after the version and an empty witness for its one input before the
# locktime. 401 bytes that hash, stripped, to DEMO_TXID.
_DEMO_RAW = bytes.fromhex((CHAIN_DIR / f"{DEMO_TXID}.hex").read_text())
assert _DEMO_RAW[4] == 1  # one input
SUPERFLUOUS_DEMO_HEX = (_DEMO_RAW[:4] + b"\x00\x01" + _DEMO_RAW[4:-4] + b"\x00"
                        + _DEMO_RAW[-4:]).hex()

# Explorer status answers for DEMO_TXID with each field the live path reads
# broken: (status document, or None for unparseable bytes; tip height body).
_CONFIRMED_DOC = {"confirmed": True, "block_height": 1_500_000, "block_time": 1553788013}
MALFORMED_LIVE_STATUS = {
    "tip_height": (_CONFIRMED_DOC, b"<html>busy</html>"),
    "tip_below_block_height": (_CONFIRMED_DOC, b"5"),
    "no_block_height": ({"confirmed": True, "block_time": 1553788013}, b"1500099"),
    "block_height_type": ({**_CONFIRMED_DOC, "block_height": None}, b"1500099"),
    "block_time": ({**_CONFIRMED_DOC, "block_time": "yesterday"}, b"1500099"),
    "block_time_range": ({**_CONFIRMED_DOC, "block_time": 10**20}, b"1500099"),
    "block_height_bool": ({**_CONFIRMED_DOC, "block_height": True}, b"1500099"),
    "block_time_float": ({**_CONFIRMED_DOC, "block_time": 1553788013.5}, b"1500099"),
    "block_hash_type": ({**_CONFIRMED_DOC, "block_hash": ["aa" * 32]}, b"1500099"),
    "confirmed_type": ({**_CONFIRMED_DOC, "confirmed": "no"}, b"1500099"),
    "not_json": (None, b"1500099"),
}


def live_status_responses(doc: dict | None, tip: bytes) -> dict:
    """Transport answers, keyed by URL, of an explorer at http://x."""
    body = b"{oops" if doc is None else json.dumps(doc).encode()
    return {f"http://x/tx/{DEMO_TXID}/status": (200, body),
            "http://x/blocks/tip/height": (200, tip)}


# What an Esplora explorer answers for DEMO_TXID, by path, when it holds the
# fixture chain: the same transaction, block time, block hash and number of
# confirmations as the .hex and .status fixtures.
_DEMO_STATUS = json.loads((CHAIN_DIR / f"{DEMO_TXID}.status").read_text())
_BLOCK_HEIGHT = 1_500_000
ESPLORA_ANSWERS = {
    f"/tx/{DEMO_TXID}/hex": (200, (CHAIN_DIR / f"{DEMO_TXID}.hex").read_bytes().strip()),
    f"/tx/{DEMO_TXID}/status": (200, json.dumps({
        "confirmed": True, "block_height": _BLOCK_HEIGHT,
        "block_time": int(BLOCK_TIME.timestamp()),
        "block_hash": _DEMO_STATUS["blockHash"]}).encode()),
    "/blocks/tip/height": (200, str(_BLOCK_HEIGHT + _DEMO_STATUS["confirmations"] - 1).encode()),
}


class _ExplorerHandler(http.server.BaseHTTPRequestHandler):
    """Answers each path from server.routes: (status, body) or (status,
    body, headers), or a callable that writes the answer itself. Other
    paths are 404."""

    def do_GET(self):
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        self.server.received.append((self.command, self.path, self.headers, body))
        answer = self.server.routes.get(self.path, (404, b"not found"))
        if callable(answer):
            answer(self)
        else:
            self.reply(*answer)

    do_POST = do_GET

    def reply(self, status: int, body: bytes, headers: dict | None = None):
        self.send_response(status)
        for name, value in {"Content-Length": str(len(body)), **(headers or {})}.items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def explorer():
    """ESPLORA_ANSWERS served over HTTP on 127.0.0.1 from a daemon thread,
    for one test: server.url is its endpoint, server.routes may be edited,
    and server.received lists each request as (method, path, headers, body)."""
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), _ExplorerHandler)
    server.url = f"http://127.0.0.1:{server.server_port}"
    server.routes = dict(ESPLORA_ANSWERS)
    server.received = []
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


requires_real_transaction = pytest.mark.skipif(
    not REAL_TX_FIXTURE.exists(),
    reason=(
        "the original testnet transaction bytes are not bundled (no network "
        f"egress here); drop the explorer hex into {REAL_TX_FIXTURE} to enable"
    ),
)


# The slow path of the record reader, the reference for its faster form.
reftx = load(Path(__file__).resolve().parent / "reftx.py")


def main_output(argv) -> tuple[int, str, str]:
    """cli.main's exit code, stdout and stderr, without pytest's capture
    fixtures, which hypothesis cannot reset between examples."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_python(*args: str, env: dict | None = None, **options) -> subprocess.CompletedProcess:
    """A new interpreter run with args on this checkout's package, in env
    (os.environ by default), its stdout and stderr captured as text unless
    options say otherwise."""
    env = dict(os.environ if env is None else env)
    src = str(Path(eaward.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True,
               "timeout": 60, **options}
    return subprocess.run([sys.executable, *args], env=env, **options)


def rebuild(record, **changes):
    """record with changes, built again through its class so that every
    check the class makes runs again."""
    return type(record)(**{**record._asdict(), **changes})


def golden_pubkeys() -> tuple[PublicKey, PublicKey, PublicKey]:
    return tuple(PublicKey.from_hex(h) for h in (PK1_HEX, PK2_HEX, PK3_HEX))


def golden_policy() -> EscrowPolicy:
    return EscrowPolicy(2, golden_pubkeys())


@pytest.fixture(scope="session")
def demo_tx() -> Transaction:
    hex_text = (CHAIN_DIR / f"{DEMO_TXID}.hex").read_text().strip()
    return parse_transaction(hex_text)


@pytest.fixture(scope="session")
def demo_tx_hex() -> str:
    return (CHAIN_DIR / f"{DEMO_TXID}.hex").read_text().strip()


@pytest.fixture()
def fixture_source() -> ChainSource:
    return ChainSource("fixture", TESTNET, fixture_root=CHAIN_DIR)


@pytest.fixture(scope="session")
def golden_agreement() -> ArbitrationAgreement:
    return load_agreement(FIXTURES / "agreement.json")


@pytest.fixture(scope="session")
def golden_status() -> TxStatus:
    return TxStatus(BLOCK_TIME, 1000, sha256(b"demo block hash").hex())


# ---------------------------------------------------------------------------
# A fresh synthetic escrow: built by world.py without eaward, read by eaward
# ---------------------------------------------------------------------------

def read_world(world: World) -> SimpleNamespace:
    """world's artifacts as eaward reads them: filed in a temporary fixture
    root and loaded back through load_agreement, get_transaction and
    get_tx_status. keys holds each party's PrivateKey by Role; line and
    signature are the world's own."""
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        agreement = load_agreement(file_world(world, root))
        source = ChainSource("fixture", TESTNET, fixture_root=root)
        txid = Txid.from_hex(world.txid)
        return SimpleNamespace(
            agreement=agreement, tx=get_transaction(source, txid),
            status=get_tx_status(source, txid), line=world.line, signature=world.signature,
            keys={Role.from_letter(r): PrivateKey(d) for r, d in world.scalars.items()})


@pytest.fixture(scope="session")
def synthetic_case() -> SimpleNamespace:
    return read_world(build_world())
