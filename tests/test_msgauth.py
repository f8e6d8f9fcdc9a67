import base64

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaward.crypto import MAINNET, TESTNET, PrivateKey, pubkey_to_address, sha256
from eaward.metadata import MetadataError, match_fragment, signature_fragment
from eaward.msgauth import MalformedSignature, message_digest, sign_message, verify_message

from conftest import ADDR_A, ADDR_C, ADDR_R, ATTEST_MESSAGE, FRAGMENT, SIGNATURE_B64


def _key(tag: str, compressed: bool = True) -> PrivateKey:
    return PrivateKey.from_bytes(sha256(f"msgauth {tag}".encode()), compressed)


# ---------------------------------------------------------------------------
# Golden triple
# ---------------------------------------------------------------------------

def test_golden_triple_verifies_offline():
    assert verify_message(ADDR_A, SIGNATURE_B64, ATTEST_MESSAGE) is True


def test_golden_triple_wrong_message_false():
    assert verify_message(
        ADDR_A, SIGNATURE_B64, ATTEST_MESSAGE.replace("London", "Paris")) is False


def test_golden_triple_wrong_signer_false():
    assert verify_message(ADDR_C, SIGNATURE_B64, ATTEST_MESSAGE) is False
    assert verify_message(ADDR_R, SIGNATURE_B64, ATTEST_MESSAGE) is False


def test_every_position_mutation_is_false():
    for i, original in enumerate(ATTEST_MESSAGE):
        substitute = "x" if original != "x" else "y"
        mutated = ATTEST_MESSAGE[:i] + substitute + ATTEST_MESSAGE[i + 1:]
        assert verify_message(ADDR_A, SIGNATURE_B64, mutated) is False, i


def test_match_fragment_golden():
    assert match_fragment(SIGNATURE_B64, FRAGMENT) is True


def test_match_fragment_mutation_false():
    mutated = ("D" if FRAGMENT[0] != "D" else "E") + FRAGMENT[1:]
    assert match_fragment(SIGNATURE_B64, mutated) is False


def test_match_fragment_length_check():
    with pytest.raises(MetadataError, match="fragment is 27 characters, expected 28"):
        match_fragment(SIGNATURE_B64, FRAGMENT[:-1])


def test_signature_fragment_golden():
    assert signature_fragment(SIGNATURE_B64) == FRAGMENT
    with pytest.raises(MetadataError):
        signature_fragment(FRAGMENT)


# ---------------------------------------------------------------------------
# Malformed inputs are errors, not "false"
# ---------------------------------------------------------------------------

def test_not_base64_is_malformed():
    with pytest.raises(MalformedSignature):
        verify_message(ADDR_A, "!!!not-base64!!!", ATTEST_MESSAGE)


def test_wrong_byte_length_is_malformed():
    short = base64.b64encode(b"\x20" + b"\x01" * 60).decode()
    with pytest.raises(MalformedSignature):
        verify_message(ADDR_A, short, ATTEST_MESSAGE)


def test_header_out_of_range_is_malformed():
    bad = base64.b64encode(bytes([99]) + b"\x01" * 64).decode()
    with pytest.raises(MalformedSignature):
        verify_message(ADDR_A, bad, ATTEST_MESSAGE)


def test_unrecoverable_rs_is_clean_false():
    # Valid header, r/s with no curve solution: verification ran and failed.
    bad = base64.b64encode(bytes([31]) + b"\x00" * 64).decode()
    assert verify_message(ADDR_A, bad, ATTEST_MESSAGE) is False


@pytest.mark.parametrize("address", [
    "2NCDHL6h7a5GoxWGw7WhwSgwBKJoAGRmbj1",  # testnet P2SH (0xC4) of ADDR_A's key hash
    "3Lf5GMm5xcmTkiePSP64pjwv6xazQdA8sC",   # mainnet P2SH (0x05) of the same hash
])
def test_golden_signature_against_p2sh_version_is_false(address):
    # BIP-137: a message signature proves control of a P2PKH key only.
    assert verify_message(address, SIGNATURE_B64, ATTEST_MESSAGE) is False


# ---------------------------------------------------------------------------
# Sign/verify round trips
# ---------------------------------------------------------------------------

def test_sign_message_shape():
    signed = sign_message(_key("shape"), ATTEST_MESSAGE, TESTNET)
    assert len(signed.signature_b64) == 88
    assert signed.signature_b64.endswith("=")
    assert verify_message(signed.address, signed.signature_b64, signed.message)


def test_sign_message_deterministic():
    one = sign_message(_key("det"), "same message", TESTNET)
    two = sign_message(_key("det"), "same message", TESTNET)
    assert one.signature_b64 == two.signature_b64


def test_sign_message_uncompressed_key_address():
    key = _key("legacy", compressed=False)
    signed = sign_message(key, "legacy address form", TESTNET)
    assert signed.address == pubkey_to_address(
        key.public_key(), TESTNET, compressed=False)
    assert verify_message(signed.address, signed.signature_b64, signed.message)


def test_mainnet_addresses_verify_too():
    signed = sign_message(_key("mainnet"), "mainnet form", MAINNET)
    assert signed.address.text.startswith("1")
    assert verify_message(signed.address, signed.signature_b64, signed.message)


def test_message_digest_distinguishes_messages():
    assert message_digest("") != message_digest(" ")
    assert message_digest("ab") != message_digest("a")
    assert len(message_digest("anything")) == 32


@settings(max_examples=20, deadline=None)
@given(tag=st.text(min_size=1, max_size=12),
       message=st.text(min_size=0, max_size=200))
def test_sign_verify_roundtrip_property(tag, message):
    key = PrivateKey.from_bytes(sha256(f"hyp {tag}".encode()))
    signed = sign_message(key, message, TESTNET)
    assert verify_message(signed.address, signed.signature_b64, signed.message) is True


def test_crossed_components_are_false():
    # Every mismatched (address, signature, message) crossing of valid parts
    # verifies false; only the aligned triples verify true.
    keys = [_key(f"cross {i}") for i in range(2)]
    messages = ["first line", "second line"]
    signed = [[sign_message(k, m, TESTNET) for m in messages] for k in keys]
    for ki in range(2):
        for mi in range(2):
            for kj in range(2):
                for mj in range(2):
                    expected = (ki == kj and mi == mj)
                    got = verify_message(signed[kj][0].address,
                                         signed[ki][mi].signature_b64,
                                         messages[mj])
                    assert got is expected, (ki, mi, kj, mj)


def test_unicode_message_roundtrip():
    signed = sign_message(_key("unicode"), "sitz Zürich, §7 ordre public", TESTNET)
    assert verify_message(signed.address, signed.signature_b64, signed.message)
