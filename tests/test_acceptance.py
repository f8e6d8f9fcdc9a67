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

import random
import shutil
from datetime import datetime, timezone
from pathlib import Path

import pytest

from eaward.anchor import AnchorError, ObjectStore
from eaward.attestation import (
    AttestationError,
    AttestationInvalid,
    LinkageFailed,
    NoTimeEvidence,
    Party,
    issue_certificate,
    load_agreement,
)
from eaward.chain import ChainSource, TxidMismatch, get_transaction, get_tx_status
from eaward.crypto import (
    Address,
    BASE58_ALPHABET,
    CryptoError,
    PrivateKey,
    TESTNET,
    base58check_decode,
    base58check_encode,
    pubkey_to_address,
    sha256,
)
from eaward.errors import Refusal
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
    from eaward.msgauth import SignedMessage
    attestation = SignedMessage(Address.from_text(ADDR_A), ATTEST_MESSAGE,
                                SIGNATURE_B64)
    return agreement, tx, status, attestation


def test_criterion_4_end_to_end_certificate():
    agreement, tx, status, attestation = _golden_inputs()
    assert status.block_time == BLOCK_TIME

    cert = issue_certificate(agreement, tx, status, [attestation],
                             "Expert Witness", ISSUED_AT)
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


def test_criterion_4_single_fault_mutations(tmp_path):
    agreement, tx, status, attestation = _golden_inputs()

    def reissue(agreement=agreement, tx=tx, status=status, attestation=attestation):
        issue_certificate(agreement, tx, status, [attestation], "W", ISSUED_AT)

    def with_payload(payload: bytes) -> Transaction:
        outputs = (TxOutput(tx.outputs[0].value, build_nulldata_script(payload)),)
        return Transaction(tx.version, tx.inputs, outputs, tx.locktime)

    # (1) wrong seat -> linkage failure
    with pytest.raises(LinkageFailed):
        reissue(agreement=rebuild(agreement, seat="Paris"))

    # (2) swapped party address, with its policy key -> linkage failure
    decoy = PrivateKey.from_bytes(sha256(b"decoy respondent")).public_key()
    parties = list(agreement.parties)
    parties[2] = Party(Role.RESPONDENT, "Baker", "Baker", pubkey_to_address(decoy, TESTNET))
    policy = EscrowPolicy(agreement.policy.m, (*agreement.policy.pubkeys[:2], decoy))
    with pytest.raises(LinkageFailed):
        reissue(agreement=rebuild(agreement, parties=tuple(parties), policy=policy))

    # (2a) swapped party address alone: the agreement contradicts its own
    # policy, so it is refused as invalid input, not answered "false"
    parties[2] = Party(Role.RESPONDENT, "Baker", "Baker",
                       Address.from_text(ZERO_PAYLOAD_ADDR))
    with pytest.raises(AttestationError, match="agreement is invalid") as invalid:
        reissue(agreement=rebuild(agreement, parties=tuple(parties)))
    assert not isinstance(invalid.value, Refusal)

    # (2b) changed display name -> linkage failure
    parties = list(agreement.parties)
    parties[1] = rebuild(parties[1], display_name="Mallory")
    with pytest.raises(LinkageFailed, match="claimant display name"):
        reissue(agreement=rebuild(agreement, parties=tuple(parties)))

    # (3) tampered signature fragment in the payload -> attestation invalid
    tampered = ATTEST_MESSAGE + " Y" + FRAGMENT[1:]
    with pytest.raises(AttestationInvalid):
        reissue(tx=with_payload(tampered.encode()))

    # (4) altered payload byte (suffix edit) -> linkage failure
    altered = METADATA_TEXT.replace("KkjJX", "KkjJ1")
    with pytest.raises(LinkageFailed):
        reissue(tx=with_payload(altered.encode()))

    # (5) missing status -> no time evidence
    with pytest.raises(NoTimeEvidence):
        reissue(status=None)

    # (6) corrupted attestation signature -> attestation invalid
    corrupted = rebuild(
        attestation,
        signature_b64=(SIGNATURE_B64[:40]
                       + ("A" if SIGNATURE_B64[40] != "A" else "B")
                       + SIGNATURE_B64[41:]))
    with pytest.raises(AttestationInvalid):
        reissue(attestation=corrupted)

    # (7) flipped transaction hex digit -> client-side txid verification
    shutil.copytree(CHAIN_DIR, tmp_path / "chain")
    hex_path = tmp_path / "chain" / f"{DEMO_TXID}.hex"
    text = hex_path.read_text()
    flip = "0" if text[120] != "0" else "1"
    hex_path.write_text(text[:120] + flip + text[121:])
    poisoned = ChainSource("fixture", TESTNET, fixture_root=tmp_path / "chain")
    with pytest.raises(TxidMismatch):
        get_transaction(poisoned, Txid.from_hex(DEMO_TXID))

    # no attestation at all -> attestation invalid
    with pytest.raises(AttestationInvalid):
        issue_certificate(agreement, tx, status, [], "W", ISSUED_AT)

    _report(4, "all seven single-fault mutations fail with their specific "
               "documented errors")


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
