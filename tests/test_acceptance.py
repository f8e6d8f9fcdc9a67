"""Acceptance gate: one test per criterion, run entirely offline in fixture
mode; each prints a PASS line (visible with `pytest -s`).

The single value that cannot be reproduced in this environment is the
original testnet transaction's byte stream (and hence its exact txid):
there is no network egress here, and its spend signatures cannot be
recreated without the escrow private keys. Everything publicly stated about
that transaction is asserted against the frozen twin fixture; the exact-txid
assertions live in a dedicated test that activates automatically when the
original hex is dropped into the fixture directory.
"""

import contextlib
import io
import json
import random
from datetime import datetime, timezone
from pathlib import Path

import pytest

from eaward.anchor import AnchorError, ObjectStore
from eaward.attestation import (
    AttestationError,
    AttestationInvalid,
    LinkageFailed,
    NoTimeEvidence,
    certify,
    load_agreement,
)
from eaward.chain import ChainSource, TxidMismatch, get_transaction, get_tx_status
from eaward.cli import main
from eaward.crypto import (
    BASE58_ALPHABET,
    CryptoError,
    PrivateKey,
    TESTNET,
    base58check_decode,
    base58check_encode,
    pubkey_to_address,
    sha256,
)
from eaward.errors import NotFound, Refusal
from eaward.escrow import EscrowPolicy, build_redeem_script
from eaward.metadata import (
    AwardMetadata,
    ParticipantTag,
    Role,
    decode_metadata,
    encode_metadata,
    match_fragment,
)
from eaward.msgauth import sign_message, verify_message
from eaward.tx import (
    Script,
    Transaction,
    TxError,
    TxInput,
    TxOutput,
    Txid,
    build_nulldata_script,
    compute_txid,
    decode_script,
    parse_transaction,
    push_data,
)

from conftest import (
    ADDR_A,
    ADDR_C,
    ADDR_R,
    ATTEST_MESSAGE,
    BLOCK_TIME,
    CHAIN_DIR,
    DEMO_TXID,
    FIXTURES,
    FRAGMENT,
    GOLDEN_ADDRESSES,
    METADATA_TEXT,
    PAYLOAD_HEX,
    REAL_TXID,
    REDEEM_HEX,
    SIGNATURE_B64,
    ZERO_PAYLOAD_ADDR,
    rebuild,
    requires_real_transaction,
)

ISSUED_AT = datetime(2026, 8, 9, 0, 0, 0, tzinfo=timezone.utc)


def _report(n: int, text: str):
    print(f"ACCEPTANCE CRITERION {n}: PASS - {text}")


# ---------------------------------------------------------------------------
# 1. Redeem-script golden vector
# ---------------------------------------------------------------------------

def test_criterion_1_redeem_script_golden_vector():
    decoded = decode_script(REDEEM_HEX, TESTNET)
    assert decoded.kind == "multisig"
    assert decoded.req_sigs == 2
    assert [a.text for a in decoded.addresses] == GOLDEN_ADDRESSES

    embedded_keys = Script.from_hex(REDEEM_HEX).pushes()
    from eaward.crypto import PublicKey
    rebuilt = build_redeem_script(
        EscrowPolicy(2, tuple(PublicKey(k) for k in embedded_keys)))
    assert rebuilt.hex() == REDEEM_HEX

    _report(1, "decode_script yields 2-of-3 with the three published "
               "addresses in order; rebuild is byte-identical")


# ---------------------------------------------------------------------------
# 2. Metadata golden vector
# ---------------------------------------------------------------------------

def test_criterion_2_metadata_golden_vector():
    payload = bytes.fromhex(PAYLOAD_HEX)
    assert payload.decode("ascii") == METADATA_TEXT
    meta = decode_metadata(payload)
    assert [(p.role.value, p.display_name, p.suffix) for p in meta.participants] == [
        ("A", "JohnSmith", "KkjJX"), ("C", "Acme", "fZN8L"), ("R", "Baker", "NBSvH")]
    assert meta.seat == "London"
    assert len(meta.sig_fragment) == 28
    assert encode_metadata(meta).hex() == PAYLOAD_HEX
    assert len(payload) == 80  # exactly at the carrier limit

    _report(2, "payload decodes to the published line, re-encodes "
               "byte-identically, and is exactly 80 bytes")


# ---------------------------------------------------------------------------
# 3. Signature golden vector
# ---------------------------------------------------------------------------

def test_criterion_3_signature_golden_vector():
    assert verify_message(ADDR_A, SIGNATURE_B64, ATTEST_MESSAGE) is True

    for i, original in enumerate(ATTEST_MESSAGE):
        substitute = "x" if original != "x" else "y"
        mutated = ATTEST_MESSAGE[:i] + substitute + ATTEST_MESSAGE[i + 1:]
        assert verify_message(ADDR_A, SIGNATURE_B64, mutated) is False, i

    for other in (ADDR_C, ADDR_R):
        assert verify_message(other, SIGNATURE_B64, ATTEST_MESSAGE) is False

    assert SIGNATURE_B64[-28:] == FRAGMENT
    assert match_fragment(SIGNATURE_B64, FRAGMENT) is True
    meta = decode_metadata(bytes.fromhex(PAYLOAD_HEX))
    assert meta.sig_fragment == FRAGMENT

    _report(3, "golden triple verifies true; every single-character message "
               "mutation and every other party address verifies false; "
               "fragment equals the metadata tail")


# ---------------------------------------------------------------------------
# 4. End-to-end certificate
# ---------------------------------------------------------------------------

def _golden_inputs():
    source = ChainSource("fixture", TESTNET, fixture_root=CHAIN_DIR)
    txid = Txid.from_hex(DEMO_TXID)
    tx = get_transaction(source, txid)
    status = get_tx_status(source, txid)
    agreement = load_agreement(FIXTURES / "agreement.json")
    return agreement, tx, status


def test_criterion_4_end_to_end_certificate():
    agreement, tx, status = _golden_inputs()
    assert status.block_time == BLOCK_TIME

    cert = certify(agreement, tx, status, SIGNATURE_B64, "Expert Witness", ISSUED_AT)
    txid_hex = compute_txid(tx).hex()
    expected_findings = (
        f"Transaction id {txid_hex} was completed on 28 March 2019 at 15:46:53 UTC",
        "The transaction amount was 0.005 BTC",
        '"A-JohnSmith-KkjJX" relates to mzV1dsMdDjtLSfRa2rPrE2oJpRtynKkjJX',
        '"C-Acme-fZN8L" relates to mpGZniUmoCemQzRbazvdgzGkmjUQ3fZN8L',
        '"R-Baker-NBSvH" relates to n2dSPmt5cv2hFNfQqoZtvRJ6bZmypNBSvH',
        "The transaction makes reference to London.",
        "John Smith's wallet digitally signed the embedded data.",
        "The record is unaltered given 1000 network confirmations.",
    )
    assert cert.findings == expected_findings

    _report(4, "certificate issues from the frozen inputs and reproduces "
               "the full findings list (txid, date, amount, three "
               "relations, seat, signer, unaltered-record note)")


# Each row changes one piece of the raw evidence a court receives, by its
# path in _golden_evidence(): the agreement JSON, the fixture files under
# their names, the txid asked for, or the --attestation text. The library's
# error class, and the command's exit code, stdout and stderr line, follow.
_HEX = f"{DEMO_TXID}.hex"
_STATUS = f"{DEMO_TXID}.status"
_MISSING = object()  # as a value: the field or file is removed


def _golden_evidence() -> dict:
    return {
        "agreement": json.loads((FIXTURES / "agreement.json").read_text()),
        "chain": {name: (CHAIN_DIR / name).read_text() for name in (_HEX, _STATUS)},
        "txid": DEMO_TXID,
        "attestation": SIGNATURE_B64,
    }


_GOLDEN = _golden_evidence()  # read only: each run edits a fresh copy


def _payload(*lines: str) -> dict:
    """Edits that put lines, one nulldata output each, in place of the demo
    transaction's output; the first keeps its value. The changed transaction
    is filed, with the demo's status, and asked for under its own txid."""
    tx = parse_transaction(_GOLDEN["chain"][_HEX])
    changed = rebuild(tx, outputs=tuple(
        TxOutput(tx.outputs[0].value if i == 0 else 0, build_nulldata_script(line.encode()))
        for i, line in enumerate(lines)))
    txid = compute_txid(changed).hex()
    return {("chain",): {f"{txid}.hex": changed.to_hex(),
                         f"{txid}.status": _GOLDEN["chain"][_STATUS]},
            ("txid",): txid}


def _decoy(index: int, seed: bytes) -> dict:
    """Edits that give the party at index a decoy's address, and the policy
    the decoy's key in that party's place: the agreement stays consistent."""
    key = PrivateKey.from_bytes(sha256(seed)).public_key()
    return {("agreement", "parties", index, "address"): pubkey_to_address(key, TESTNET).text,
            ("agreement", "policy", "pubkeys", index): key.hex()}


def _flip(text: str, index: int) -> str:
    return text[:index] + ("0" if text[index] != "0" else "1") + text[index + 1:]


_LINKAGE = "agreement does not match transaction: "
_INCONSISTENT = "agreement is invalid: escrow policy keys do not correspond 1:1 to party addresses"
_UNTIMED = "no confirmed block time for the transaction"
_PARIS = METADATA_TEXT.replace("London", "Paris")

_SINGLE_FAULTS = [
    pytest.param({("agreement", "seat"): "Paris"},
                 LinkageFailed, 1, _LINKAGE + "seat", id="seat"),
    pytest.param(_decoy(2, b"decoy respondent"), LinkageFailed, 1,
                 _LINKAGE + "redeem script, respondent address suffix, "
                 "respondent address not in script", id="respondent_address_and_key"),
    pytest.param(_decoy(1, b"decoy claimant"), LinkageFailed, 1,
                 _LINKAGE + "redeem script, claimant address suffix, "
                 "claimant address not in script", id="claimant_address_and_key"),
    # An address alone swapped contradicts the agreement's own policy: an
    # invalid input, not a "false".
    pytest.param({("agreement", "parties", 2, "address"): ZERO_PAYLOAD_ADDR},
                 AttestationError, 2, _INCONSISTENT, id="respondent_address_alone"),
    pytest.param({("agreement", "parties", 1, "address"): ZERO_PAYLOAD_ADDR},
                 AttestationError, 2, _INCONSISTENT, id="claimant_address_alone"),
    pytest.param({("agreement", "parties", 1, "displayName"): "Mallory"},
                 LinkageFailed, 1, _LINKAGE + "claimant display name", id="display_name"),
    pytest.param({("agreement", "policy", "m"): 1},
                 LinkageFailed, 1, _LINKAGE + "redeem script", id="quorum_1"),
    pytest.param({("agreement", "policy", "pubkeys"):
                  _GOLDEN["agreement"]["policy"]["pubkeys"][::-1]},
                 LinkageFailed, 1, _LINKAGE + "redeem script", id="pubkeys_reversed"),
    pytest.param(_payload(ATTEST_MESSAGE + " Y" + FRAGMENT[1:]), AttestationInvalid, 1,
                 "embedded signature fragment does not match the arbitrator attestation",
                 id="fragment"),
    pytest.param(_payload(METADATA_TEXT.replace("KkjJX", "KkjJ1")),
                 LinkageFailed, 1, _LINKAGE + "arbitrator address suffix", id="suffix"),
    # A record that states two awards evidences neither, even when they agree.
    pytest.param(_payload(METADATA_TEXT, _PARIS), LinkageFailed, 1,
                 _LINKAGE + "award lines in outputs 0, 1", id="second_award_line_after"),
    pytest.param(_payload(_PARIS, METADATA_TEXT), LinkageFailed, 1,
                 _LINKAGE + "seat, award lines in outputs 0, 1", id="second_award_line_before"),
    pytest.param(_payload(METADATA_TEXT, METADATA_TEXT), LinkageFailed, 1,
                 _LINKAGE + "award lines in outputs 0, 1", id="award_line_twice"),
    pytest.param({("chain", _HEX): _flip(_GOLDEN["chain"][_HEX], 120)}, TxidMismatch, 2,
                 f"requested {DEMO_TXID} but source bytes hash to "
                 "98396e40cfc80aafd632803e69bebeac654714ee1764c04450a25fdb4bd1ba45",
                 id="hex_digit"),
    pytest.param({("txid",): "ab" * 32}, NotFound, 2, f"no fixture for {'ab' * 32}",
                 id="unknown_txid"),
    pytest.param({("chain", _STATUS): _MISSING},
                 NoTimeEvidence, 1, _UNTIMED, id="status_missing"),
    pytest.param({("chain", _STATUS): '{"confirmations": 0}'},
                 NoTimeEvidence, 1, _UNTIMED, id="status_unconfirmed"),
    pytest.param({("attestation",): _flip(SIGNATURE_B64, 40)}, AttestationInvalid, 1,
                 f"signature does not verify for {ADDR_A}", id="signature"),
]


def _certify_in_library(agreement_file, root, txid_hex, signature_b64):
    """The library calls of `eaward certify`, made as cmd_certify makes them."""
    agreement = load_agreement(agreement_file)
    source = ChainSource("fixture", TESTNET, fixture_root=root)
    txid = Txid.from_hex(txid_hex)
    return certify(agreement, get_transaction(source, txid), get_tx_status(source, txid),
                   signature_b64, "W", ISSUED_AT)


@pytest.mark.parametrize("edits,error,code,message", _SINGLE_FAULTS)
def test_criterion_4_single_fault_mutations(tmp_path, edits, error, code, message):
    evidence = _golden_evidence()
    for (*parents, last), value in edits.items():
        target = evidence
        for key in parents:
            target = target[key]
        if value is _MISSING:
            del target[last]
        else:
            target[last] = value
    agreement = tmp_path / "agreement.json"
    agreement.write_text(json.dumps(evidence["agreement"]))
    root = tmp_path / "chain"
    root.mkdir()
    for name, text in evidence["chain"].items():
        (root / name).write_text(text)
    txid, signature = evidence["txid"], evidence["attestation"]

    with pytest.raises(error) as refused:
        _certify_in_library(agreement, root, txid, signature)
    assert type(refused.value) is error
    assert isinstance(refused.value, Refusal) is (code == 1)
    assert str(refused.value) == message

    argv = ["--fixture-root", str(root), "certify", str(agreement), txid,
            "--attestation", signature, "--certifier", "W"]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == code
    assert out.getvalue() == ("false\n" if code == 1 else "")
    assert err.getvalue() == f"error: {message}\n"

    _report(4, f"refused with {error.__name__}, exit {code}: {message}")


@requires_real_transaction
def test_criterion_4_original_transaction_txid():
    from eaward.tx import extract_op_return

    source = ChainSource("fixture", TESTNET, fixture_root=CHAIN_DIR)
    txid = Txid.from_hex(REAL_TXID)
    tx = get_transaction(source, txid)
    assert compute_txid(tx).hex() == REAL_TXID
    final_push = tx.inputs[0].script_sig.pushes()[-1]
    assert final_push.hex() == REDEEM_HEX
    assert PAYLOAD_HEX in [p.hex() for p in extract_op_return(tx)]
    _report(4, "original transaction bytes hash to the published txid and "
               "carry the published redeem script and payload")


# ---------------------------------------------------------------------------
# 5. Tamper evidence, exhaustive
# ---------------------------------------------------------------------------

def test_criterion_5_tamper_evidence_exhaustive(demo_tx_hex):
    baseline = compute_txid(parse_transaction(demo_tx_hex))
    hex_digits = "0123456789abcdef"
    changed = 0
    unparseable = 0
    for pos in range(len(demo_tx_hex)):
        original = demo_tx_hex[pos]
        for substitute in hex_digits:
            if substitute == original:
                continue
            mutated = demo_tx_hex[:pos] + substitute + demo_tx_hex[pos + 1:]
            try:
                other = compute_txid(parse_transaction(mutated))
            except TxError:
                unparseable += 1  # framing destroyed: no txid exists at all
                continue
            assert other != baseline, (pos, substitute)
            changed += 1
    total = changed + unparseable
    assert total == len(demo_tx_hex) * 15

    _report(5, f"every substitution at all {len(demo_tx_hex)} hex positions "
               f"({total} mutations) changes or destroys the txid "
               f"({changed} changed, {unparseable} unparseable)")


# ---------------------------------------------------------------------------
# 6. Randomized property suites (>= 100 cases each, deterministic seeds)
# ---------------------------------------------------------------------------

def test_criterion_6_base58check_roundtrip_suite():
    rng = random.Random("base58 suite")
    for _ in range(150):
        version = rng.randrange(256)
        payload = rng.randbytes(20)
        text = base58check_encode(version, payload)
        assert base58check_decode(text) == (version, payload)

        pos = rng.randrange(len(text))
        substitute = rng.choice([c for c in BASE58_ALPHABET if c != text[pos]])
        mutated = text[:pos] + substitute + text[pos + 1:]
        with pytest.raises(CryptoError, match="bad checksum|expected 25"):
            base58check_decode(mutated)
    _report(6, "base58check: 150 round-trips and 150 single-character "
               "mutations rejected")


def test_criterion_6_metadata_roundtrip_suite():
    rng = random.Random("metadata suite")
    names = "ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz123456789"
    b64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
    for _ in range(120):
        tags = tuple(
            ParticipantTag(
                role,
                "".join(rng.choice(names) for _ in range(rng.randint(1, 5))),
                "".join(rng.choice(BASE58_ALPHABET) for _ in range(5)))
            for role in Role)
        seat = rng.choice(["London", "Geneva", "Zurich", "TheHague"])
        fragment = "".join(rng.choice(b64) for _ in range(27)) + "="
        meta = AwardMetadata(tags, seat, fragment)
        payload = encode_metadata(meta)
        assert len(payload) <= 80
        assert decode_metadata(payload) == meta
    _report(6, "metadata codec: 120 encode/decode round-trips within the "
               "80-byte bound")


def test_criterion_6_transaction_roundtrip_suite():
    rng = random.Random("tx suite")
    for i in range(100):
        inputs = tuple(
            TxInput(
                Txid(rng.randbytes(32)),
                rng.randrange(2**32),
                Script(push_data(rng.randbytes(rng.randint(0, 70)))),
                rng.randrange(2**32),
                tuple(rng.randbytes(rng.randint(0, 30))
                      for _ in range(rng.randint(0, 2))) if i % 2 else (),
            )
            for _ in range(rng.randint(1, 3)))
        outputs = tuple(
            TxOutput(rng.randrange(21_000_000 * 10**8),
                     Script(push_data(rng.randbytes(rng.randint(0, 60)))))
            for _ in range(rng.randint(1, 3)))
        tx = Transaction(rng.randrange(1, 3), inputs, outputs, rng.randrange(2**32))
        assert parse_transaction(tx.to_hex()) == tx
    _report(6, "transaction serialization: 100 round-trips incl. witness "
               "serializations")


def test_criterion_6_sign_verify_suite():
    rng = random.Random("sign suite")
    for i in range(100):
        key = PrivateKey.from_bytes(sha256(rng.randbytes(16)),
                                    compressed=bool(i % 3))
        message = "".join(rng.choice("abcdef ghij") for _ in range(rng.randint(0, 40)))
        signed = sign_message(key, message, TESTNET)
        assert verify_message(signed.address, signed.signature_b64, message) is True
    _report(6, "sign/verify: 100 round-trips across compressed and "
               "uncompressed keys")


def test_criterion_6_oversize_payloads_rejected():
    rng = random.Random("payload suite")
    for size in range(81, 181):
        with pytest.raises(TxError, match=f"nulldata payload is {size} bytes, limit 80"):
            build_nulldata_script(rng.randbytes(size))
    _report(6, "nulldata payloads of 81..180 bytes all rejected")


def test_criterion_6_object_store_suite(tmp_path):
    store = ObjectStore(tmp_path)
    rng = random.Random("store suite")
    ids = []
    for _ in range(100):
        blob = rng.randbytes(rng.randint(1, 400))
        content_id = store.store(blob)
        assert store.fetch(content_id) == blob
        ids.append(content_id)
    victim = ids[37]
    path = tmp_path / victim.hex()
    data = bytearray(path.read_bytes())
    data[0] ^= 0xFF
    path.write_bytes(bytes(data))
    with pytest.raises(AnchorError, match="no longer hash to it"):
        store.fetch(victim)
    _report(6, "object store: 100 round-trips and corruption detected on fetch")


# ---------------------------------------------------------------------------
# 7. Non-reproducible claims excluded
# ---------------------------------------------------------------------------

def test_criterion_7_exclusions_documented():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    assert "not reproducible by software" in readme
    # No API pretends to decide legal recognizability.
    import importlib
    import pkgutil

    import eaward
    surface = " ".join(
        name for module in pkgutil.iter_modules(eaward.__path__)
        for name in dir(importlib.import_module(f"eaward.{module.name}")))
    for banned in ("recognizability", "convention", "enforceab"):
        assert banned not in surface.lower()
    _report(7, "legal conclusions and adoption statistics are documented as "
               "out of scope; no API claims them")
