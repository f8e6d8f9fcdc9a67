import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eaward.crypto import BASE58_ALPHABET
from eaward.metadata import (
    AwardMetadata,
    MetadataError,
    ParticipantTag,
    Role,
    attest_message,
    decode_metadata,
    encode_metadata,
)
from eaward.tx import build_nulldata_script

from conftest import ATTEST_MESSAGE, FRAGMENT, METADATA_TEXT, PAYLOAD_HEX


GOLDEN_PAYLOAD = bytes.fromhex(PAYLOAD_HEX)


def golden_metadata() -> AwardMetadata:
    return decode_metadata(GOLDEN_PAYLOAD)


def test_decode_golden_payload():
    meta = golden_metadata()
    assert meta.text() == METADATA_TEXT
    assert [(p.role.value, p.display_name, p.suffix) for p in meta.participants] == [
        ("A", "JohnSmith", "KkjJX"),
        ("C", "Acme", "fZN8L"),
        ("R", "Baker", "NBSvH"),
    ]
    assert meta.seat == "London"
    assert meta.sig_fragment == FRAGMENT
    assert len(meta.sig_fragment) == 28


def test_encode_golden_is_80_bytes():
    payload = encode_metadata(golden_metadata())
    assert payload.hex() == PAYLOAD_HEX
    assert len(payload) == 80


def test_attest_message_golden():
    meta = golden_metadata()
    assert attest_message(meta) == ATTEST_MESSAGE
    assert meta.text().startswith(attest_message(meta))


def test_attest_message_tracks_seat():
    meta = golden_metadata()
    moved = AwardMetadata(meta.participants, "Geneva", meta.sig_fragment)
    assert attest_message(moved) != attest_message(meta)


def test_payload_too_long_boundary():
    meta = golden_metadata()
    # Golden line is exactly at the 80-byte limit; one more name byte overflows.
    tags = list(meta.participants)
    tags[0] = ParticipantTag(Role.ARBITRATOR, tags[0].display_name + "X", tags[0].suffix)
    with pytest.raises(MetadataError, match="metadata line is 81 bytes, limit 80"):
        AwardMetadata(tuple(tags), meta.seat, meta.sig_fragment)


def test_op_return_script_within_carrier_limit():
    script = build_nulldata_script(encode_metadata(golden_metadata()))
    assert len(script.raw) <= 83


def test_decode_unknown_role():
    payload = GOLDEN_PAYLOAD.replace(b"A-JohnSmith", b"X-JohnSmith")
    with pytest.raises(MetadataError, match="role letter 'X' is not one of A/C/R"):
        decode_metadata(payload)


def test_decode_duplicate_role():
    payload = GOLDEN_PAYLOAD.replace(b"C-Acme", b"A-Acme")
    with pytest.raises(MetadataError, match="one tag per role required"):
        decode_metadata(payload)


def test_decode_role_order_enforced():
    text = "C-Acme-fZN8L A-JohnSmith-KkjJX R-Baker-NBSvH London " + FRAGMENT
    with pytest.raises(MetadataError, match="participants must appear in A, C, R order"):
        decode_metadata(text.encode())


def test_decode_bad_token_count():
    with pytest.raises(MetadataError, match="expected 5 space-separated tokens, got 4"):
        decode_metadata(b"A-JohnSmith-KkjJX C-Acme-fZN8L London " + FRAGMENT.encode())
    with pytest.raises(MetadataError,
                       match="participant token 'R-Ba-ker-NBSvH' must be role-name-suffix"):
        decode_metadata(GOLDEN_PAYLOAD.replace(b"R-Baker-NBSvH", b"R-Ba-ker-NBSvH"))


def test_decode_bad_suffix_length():
    payload = GOLDEN_PAYLOAD.replace(b"-KkjJX", b"-KkjJ")
    with pytest.raises(MetadataError, match="suffix 'KkjJ' must be exactly 5 characters"):
        decode_metadata(payload)


def test_decode_bad_fragment_length():
    with pytest.raises(MetadataError, match="signature fragment must be 28 characters"):
        decode_metadata(GOLDEN_PAYLOAD[:-1])
    # 28 characters, the last a line feed.
    with pytest.raises(MetadataError, match="signature fragment has non-base64 characters"):
        decode_metadata(GOLDEN_PAYLOAD[:-1] + b"\n")


def test_decode_rejects_non_ascii():
    with pytest.raises(MetadataError, match="payload is not ASCII"):
        decode_metadata(b"\xff" + GOLDEN_PAYLOAD[1:])


def test_name_charset_enforced():
    with pytest.raises(MetadataError, match="display name 'Ac me' must be ASCII alphanumerics"):
        ParticipantTag(Role.CLAIMANT, "Ac me", "fZN8L")
    with pytest.raises(MetadataError, match="display name '' must be ASCII alphanumerics"):
        ParticipantTag(Role.CLAIMANT, "", "fZN8L")
    with pytest.raises(MetadataError,
                       match=re.escape("display name 'Acme\\n' must be ASCII alphanumerics")):
        ParticipantTag(Role.CLAIMANT, "Acme\n", "fZN8L")
    with pytest.raises(MetadataError, match="suffix 'fZN80' has non-base58 characters"):
        ParticipantTag(Role.CLAIMANT, "Acme", "fZN80")  # '0' not base58


def test_seat_single_token():
    tags = tuple(ParticipantTag(role, f"N{role.value}", "fZN8L")
                 for role in (Role.ARBITRATOR, Role.CLAIMANT, Role.RESPONDENT))
    with pytest.raises(MetadataError,
                       match="seat 'The Hague' must be one space-free printable ASCII token"):
        AwardMetadata(tags, "The Hague", FRAGMENT)
    with pytest.raises(MetadataError,
                       match=re.escape("seat 'London\\n' must be one space-free printable")):
        AwardMetadata(tags, "London\n", FRAGMENT)
    # Space-free multiword seats are the supported spelling.
    assert AwardMetadata(tags, "TheHague", FRAGMENT).seat == "TheHague"


# ---------------------------------------------------------------------------
# Round-trip property
# ---------------------------------------------------------------------------

# Name budget keeps every generated line within the 80-byte payload:
# 3*(name<=5 + 8) + 2 + 1 + seat<=8 + 1 + 28 <= 79.
_names = st.text(alphabet="ABCDEFGHJKabcdefgh0123456789", min_size=1, max_size=5)
_suffixes = st.text(alphabet=BASE58_ALPHABET, min_size=5, max_size=5)
_seats = st.sampled_from(["London", "Geneva", "Zurich", "TheHague", "NewYork"])
_fragments = st.text(
    alphabet="ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/",
    min_size=27, max_size=27).map(lambda s: s + "=")


@st.composite
def metadata_values(draw):
    tags = tuple(
        ParticipantTag(role, draw(_names), draw(_suffixes))
        for role in (Role.ARBITRATOR, Role.CLAIMANT, Role.RESPONDENT)
    )
    return AwardMetadata(tags, draw(_seats), draw(_fragments))


@given(metadata_values())
def test_encode_decode_roundtrip(meta):
    assert decode_metadata(encode_metadata(meta)) == meta


@given(metadata_values())
def test_payload_never_exceeds_limit(meta):
    payload = encode_metadata(meta)
    assert len(payload) <= 80
    assert len(build_nulldata_script(payload).raw) <= 83
