from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaward import anchor
from eaward.anchor import (
    AnchorError,
    AwardDocument,
    HashMismatch,
    NoAnchorFound,
    NotFound,
    ObjectStore,
    build_anchor_script,
    checksum_award,
    verify_anchor,
)
from eaward.crypto import sha256
from eaward.tx import (
    Script,
    Transaction,
    TxInput,
    TxOutput,
    Txid,
    build_nulldata_script,
    extract_op_return,
)

from conftest import AWARD_SHA256, FIXTURES

P2PKH_DUMMY = Script(b"\x76\xa9\x14" + bytes(20) + b"\x88\xac")


def _tx(*outputs) -> Transaction:
    return Transaction(
        2, (TxInput(Txid(bytes(32)), 0, Script(b"")),), tuple(outputs))


def _anchor_tx(doc: AwardDocument) -> Transaction:
    return _tx(TxOutput(0, build_anchor_script(checksum_award(doc))))


def test_checksum_frozen_sample_award():
    doc = AwardDocument((FIXTURES / "award.txt").read_bytes())
    assert checksum_award(doc).hex() == AWARD_SHA256


def test_checksum_distinguishes_versions():
    one = checksum_award(AwardDocument(b"award text v1"))
    two = checksum_award(AwardDocument(b"award text v2"))
    assert one != two


def test_checksum_idempotent():
    doc = AwardDocument(b"stable")
    assert checksum_award(doc) == checksum_award(doc)


def test_empty_document_rejected():
    with pytest.raises(AnchorError, match="award document is empty"):
        AwardDocument(b"")


def test_anchor_payload_is_raw_digest():
    digest = sha256(b"doc")
    assert build_anchor_script(digest) == build_nulldata_script(digest)
    assert len(build_anchor_script(digest).raw) == 34  # opcode + push + 32
    other = sha256(b"doc2")
    assert build_anchor_script(digest) != build_anchor_script(other)


@pytest.mark.parametrize("length", [31, 33])
def test_anchor_script_needs_32_byte_digest(length):
    with pytest.raises(AnchorError):
        build_anchor_script(bytes(length))


def test_verify_anchor_finds_vout():
    doc = AwardDocument(b"the award file")
    tx = _tx(
        TxOutput(1000, P2PKH_DUMMY),
        TxOutput(0, build_anchor_script(checksum_award(doc))),
    )
    proof = verify_anchor(doc, tx)
    assert proof.vout_index == 1
    assert proof.doc_hash == checksum_award(doc)


def test_verify_anchor_tamper_evidence():
    doc = AwardDocument(b"the award file")
    tx = _anchor_tx(doc)
    tampered = AwardDocument(b"the award fil3")
    with pytest.raises(HashMismatch):
        verify_anchor(tampered, tx)


def test_verify_anchor_requires_nulldata():
    with pytest.raises(NoAnchorFound):
        verify_anchor(AwardDocument(b"x"), _tx(TxOutput(1000, P2PKH_DUMMY)))


def test_anchor_never_reveals_document_bytes():
    doc = AwardDocument(b"CONFIDENTIAL AWARD CONTENT confidential-marker-123")
    raw = _anchor_tx(doc).serialize()
    for window in range(8, len(doc.data) + 1):
        for start in range(0, len(doc.data) - window + 1):
            assert doc.data[start:start + window] not in raw


def test_anchor_roundtrip_through_tx_model():
    digest = sha256(b"round trip")
    tx = _tx(TxOutput(0, build_anchor_script(digest)))
    assert extract_op_return(tx) == [digest]


def test_verify_anchor_iff_extract_contains_digest():
    doc = AwardDocument(b"equivalence check")
    anchored = _anchor_tx(doc)
    assert checksum_award(doc) in extract_op_return(anchored)
    other = _tx(TxOutput(0, build_nulldata_script(b"unrelated payload")))
    assert checksum_award(doc) not in extract_op_return(other)
    with pytest.raises(HashMismatch):
        verify_anchor(doc, other)


# ---------------------------------------------------------------------------
# Object store
# ---------------------------------------------------------------------------

def test_store_fetch_roundtrip(tmp_path):
    store = ObjectStore(tmp_path / "objects")
    blob = b"opaque ciphertext bytes"
    content_id = store.store(blob)
    assert content_id == sha256(blob)
    assert store.fetch(content_id) == blob


def test_store_idempotent(tmp_path):
    store = ObjectStore(tmp_path)
    blob = b"same bytes"
    assert store.store(blob) == store.store(blob)
    assert len(list(tmp_path.iterdir())) == 1


def test_fetch_unknown_id(tmp_path):
    store = ObjectStore(tmp_path)
    with pytest.raises(NotFound):
        store.fetch(sha256(b"never stored"))


def test_fetch_detects_corruption(tmp_path):
    store = ObjectStore(tmp_path)
    content_id = store.store(b"will be corrupted")
    path = tmp_path / content_id.hex()
    path.write_bytes(b"will be corrupteX")
    with pytest.raises(AnchorError, match="no longer hash to it"):
        store.fetch(content_id)


def test_store_rejects_empty(tmp_path):
    with pytest.raises(AnchorError, match="refusing to store an empty object"):
        ObjectStore(tmp_path).store(b"")


def test_store_removes_its_staging_file_when_the_write_fails(tmp_path, monkeypatch):
    store = ObjectStore(tmp_path)

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(anchor.os, "replace", refuse)
    with pytest.raises(OSError, match="^disk full$"):
        store.store(b"award")
    assert list(tmp_path.iterdir()) == []


def test_fetch_of_an_object_removed_after_a_probe_is_not_found(tmp_path, monkeypatch):
    # An existence check answers for a moment already past: the read decides.
    store = ObjectStore(tmp_path)
    monkeypatch.setattr(Path, "exists", lambda self, *args, **kwargs: True)
    missing = sha256(b"never stored")
    with pytest.raises(NotFound, match=f"^no object {missing.hex()}$"):
        store.fetch(missing)


def test_store_leaves_no_staging_files(tmp_path):
    store = ObjectStore(tmp_path)
    for i in range(5):
        store.store(f"blob {i}".encode())
    names = [p.name for p in tmp_path.iterdir()]
    assert not [n for n in names if n.startswith(".staging-")]
    assert len(names) == 5


@settings(max_examples=50, deadline=None)
@given(blob=st.binary(min_size=1, max_size=512))
def test_store_roundtrip_property(tmp_path_factory, blob):
    store = ObjectStore(tmp_path_factory.mktemp("cas"))
    assert store.fetch(store.store(blob)) == blob
