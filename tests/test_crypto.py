import base64
import string

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from eaward import crypto
from eaward._ripemd160 import ripemd160
from eaward.crypto import (
    Address,
    CryptoError,
    PrivateKey,
    PublicKey,
    RecoverableSig,
    RecoveryFailed,
    base58check_decode,
    base58check_encode,
    ecdsa_recover,
    ecdsa_sign_recoverable,
    p2pkh_network,
)
from eaward.errors import EawardError, MalformedHex, parse_hex

from conftest import (
    ADDR_A,
    ADDR_C,
    ADDR_C_HASH160,
    PK1_HEX,
    SIGNATURE_B64,
    ZERO_PAYLOAD_ADDR,
    refcrypto,
    reftx,
)

# Officially published RIPEMD-160 vectors.
RIPEMD_VECTORS = [
    (b"", "9c1185a5c5e9fc54612808977ee8f548b2258d31"),
    (b"a", "0bdc9d2d256b3ee9daae347be6f4dc835a467ffe"),
    (b"abc", "8eb208f7e05d987a9b044a8e98c6b087f15a0bfc"),
    (b"message digest", "5d0689ef49d2fae572b881b123a85ffa21595f36"),
    (b"abcdefghijklmnopqrstuvwxyz", "f71c27109c692c1b56bbdceb5b9d2865b3708dbc"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "12a053384a9c0c88e405a06c27dcf49ada62eb2b"),
    (b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
     "b0e20b6e3116640286ed3a87a5713079b21f5189"),
    (b"1234567890" * 8, "9b752e45573d4b39f4dbd3323cab82bf63326bfb"),
]


@pytest.mark.parametrize("message,expected", RIPEMD_VECTORS)
def test_ripemd160_published_vectors(message, expected):
    assert ripemd160(message).hex() == expected


def test_ripemd160_million_a():
    assert ripemd160(b"a" * 1_000_000).hex() == "52783243c1697bdbe16d37f97f68f08325dc1528"


def test_bound_ripemd160_published_vectors():
    # crypto.ripemd160 is hashlib's where the OpenSSL provider has it, else
    # the pure-Python one tested above.
    for message, expected in RIPEMD_VECTORS:
        assert crypto.ripemd160(message).hex() == expected
    assert crypto.ripemd160(b"a" * 1_000_000).hex() == "52783243c1697bdbe16d37f97f68f08325dc1528"
    assert crypto.hash160(b"abc") == ripemd160(crypto.sha256(b"abc"))


def test_sha256_published_vectors():
    assert crypto.sha256(b"abc").hex() == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")
    assert crypto.sha256(b"").hex() == (
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


@given(st.binary(min_size=0, max_size=64))
def test_hash256_bit_flip_sensitivity(data):
    if not data:
        data = b"\x00"
    flipped = bytes([data[0] ^ 1]) + data[1:]
    assert crypto.hash256(data) == crypto.sha256(crypto.sha256(data))
    assert crypto.hash256(data) != crypto.hash256(flipped)


def test_digests_are_pure():
    assert all(crypto.hash160(b"same") == crypto.hash160(b"same") for _ in range(5))


# ---------------------------------------------------------------------------
# base58check
# ---------------------------------------------------------------------------

def test_base58check_pk1_address_golden():
    pk1 = bytes.fromhex(PK1_HEX)
    assert base58check_encode(0x6F, crypto.hash160(pk1)) == ADDR_A


def test_base58check_decode_golden_payload():
    version, payload = base58check_decode(ADDR_C)
    assert version == 0x6F
    assert payload.hex() == ADDR_C_HASH160


def test_base58check_zero_payload_regression():
    assert base58check_encode(0x6F, bytes(20)) == ZERO_PAYLOAD_ADDR


def test_base58check_roundtrip_of_published_address():
    version, payload = base58check_decode("n2dSPmt5cv2hFNfQqoZtvRJ6bZmypNBSvH")
    assert base58check_encode(version, payload) == "n2dSPmt5cv2hFNfQqoZtvRJ6bZmypNBSvH"


def test_base58check_encode_matches_independent_implementation():
    # Every version byte, and 0..20 leading zero bytes in the payload: the
    # zero bytes that become leading "1"s, and a top digit pair that starts
    # with a zero digit.
    for version in range(256):
        for zeros in range(21):
            payload = bytes(zeros) + crypto.sha256(bytes([version, zeros]))[:20 - zeros]
            assert base58check_encode(version, payload) == refcrypto.b58check(version, payload)


def test_base58check_invalid_characters():
    with pytest.raises(CryptoError, match="'0' is not a base58 character"):
        base58check_decode("0OIl")


def test_base58check_wrong_length():
    text = base58check_encode(0x6F, bytes(19) + b"\x01")  # encodes 24-byte raw
    # The encoder is general; the decoder enforces the 25-byte address frame.
    with pytest.raises(CryptoError, match="decoded to 22 bytes, expected 25"):
        base58check_decode(text[:-4])


def test_base58check_last_character_edit_rejected():
    mutated = ADDR_A[:-1] + ("1" if ADDR_A[-1] != "1" else "2")
    with pytest.raises(CryptoError, match="bad checksum in"):
        base58check_decode(mutated)


def test_base58check_every_single_character_mutation_rejected():
    alphabet = crypto.BASE58_ALPHABET
    for i, original in enumerate(ADDR_A):
        for substitute in alphabet:
            if substitute == original:
                continue
            mutated = ADDR_A[:i] + substitute + ADDR_A[i + 1:]
            with pytest.raises(CryptoError, match="bad checksum|expected 25"):
                base58check_decode(mutated)


@given(version=st.integers(min_value=0, max_value=255), payload=st.binary(min_size=20, max_size=20))
def test_base58check_roundtrip_property(version, payload):
    text = base58check_encode(version, payload)
    assert base58check_decode(text) == (version, payload)


def test_address_from_parts_and_text():
    addr = Address.from_parts(0x6F, bytes.fromhex(ADDR_C_HASH160))
    assert addr.text == ADDR_C
    again = Address.from_text(ADDR_C)
    assert again == addr
    with pytest.raises(CryptoError, match="address payload must be 20 bytes"):
        Address.from_parts(0x6F, b"short")


# ---------------------------------------------------------------------------
# recoverable ECDSA
# ---------------------------------------------------------------------------

def test_sign_is_deterministic():
    key = PrivateKey.from_bytes(crypto.sha256(b"determinism"))
    digest = crypto.sha256(b"message")
    first = ecdsa_sign_recoverable(key, digest)
    second = ecdsa_sign_recoverable(key, digest)
    assert first.to_bytes() == second.to_bytes()


def test_sign_header_encodes_compression():
    digest = crypto.sha256(b"header check")
    compressed = ecdsa_sign_recoverable(PrivateKey(12345, compressed=True), digest)
    assert compressed.header >= 31
    legacy = ecdsa_sign_recoverable(PrivateKey(12345, compressed=False), digest)
    assert 27 <= legacy.header <= 30


def test_sign_applies_low_s():
    for i in range(1, 30):
        sig = ecdsa_sign_recoverable(PrivateKey(i), crypto.sha256(bytes([i])))
        assert sig.s <= crypto.CURVE_ORDER // 2


def test_recover_golden_signature():
    raw = base64.b64decode(SIGNATURE_B64)
    sig = RecoverableSig.from_bytes(raw)
    assert sig.header == 32 and sig.compressed
    # Digest of the attested line under the signed-message preamble.
    from eaward.msgauth import message_digest
    from conftest import ATTEST_MESSAGE
    recovered = ecdsa_recover(sig, message_digest(ATTEST_MESSAGE))
    assert recovered.hex() == PK1_HEX
    assert base58check_encode(0x6F, crypto.hash160(recovered.data)) == ADDR_A


def test_recover_header_out_of_range():
    with pytest.raises(RecoveryFailed):
        RecoverableSig(35, 1, 1)
    with pytest.raises(RecoveryFailed):
        RecoverableSig(26, 1, 1)


def test_recover_bad_r_s():
    with pytest.raises(RecoveryFailed):
        ecdsa_recover(RecoverableSig(31, 0, 5), crypto.sha256(b"x"))
    with pytest.raises(RecoveryFailed):
        ecdsa_recover(RecoverableSig(31, crypto.CURVE_ORDER, 5), crypto.sha256(b"x"))


@settings(max_examples=25, deadline=None)
@given(
    scalar=st.integers(min_value=1, max_value=crypto.CURVE_ORDER - 1),
    payload=st.binary(min_size=1, max_size=48),
    compressed=st.booleans(),
)
def test_sign_recover_roundtrip_property(scalar, payload, compressed):
    key = PrivateKey(scalar, compressed)
    digest = crypto.sha256(payload)
    sig = ecdsa_sign_recoverable(key, digest)
    assert ecdsa_recover(sig, digest) == key.public_key() == reference_public_key(scalar)
    assert sig.compressed == compressed


@pytest.mark.parametrize("size", [0, 31, 33])
def test_sign_and_recover_take_a_32_byte_digest(size):
    with pytest.raises(CryptoError, match="^digest must be 32 bytes$"):
        ecdsa_sign_recoverable(PrivateKey(1), bytes(size))
    with pytest.raises(CryptoError, match="^digest must be 32 bytes$"):
        ecdsa_recover(RecoverableSig(31, 1, 1), bytes(size))


def test_private_key_range_checks():
    with pytest.raises(CryptoError, match="private key scalar out of range"):
        PrivateKey(0)
    with pytest.raises(CryptoError, match="private key scalar out of range"):
        PrivateKey(crypto.CURVE_ORDER)
    with pytest.raises(CryptoError, match="private key must be 32 bytes"):
        PrivateKey.from_bytes(b"\x01" * 31)


_P = 2**256 - 2**32 - 977
# x coordinates at the edges of the key check: 0, 5 and P - 1 (x**3 + 7 a
# non-square), P and 2**256 - 1 (outside the field), and G.x with its
# endomorphism image BETA*G.x (on the curve).
_EDGE_X = [0, 5, _P - 1, _P, 2**256 - 1, crypto._GX,
           crypto._BETA * crypto._GX % _P]


def _key_refusal(x, odd):
    try:
        PublicKey(bytes([2 + odd]) + x.to_bytes(32, "big"))
    except CryptoError as exc:
        return str(exc)
    return None


def _lift_refusal(x, odd):
    """What the square root says of x, as PublicKey would word it."""
    try:
        crypto._lift_x(x, odd)
    except RecoveryFailed as exc:
        return f"not a curve point: {exc}"
    return None


def test_public_key_validation():
    with pytest.raises(CryptoError, match="public key must be 33 bytes with 0x02/0x03 prefix"):
        PublicKey(b"\x05" + bytes(32))
    with pytest.raises(CryptoError, match="public key must be 33 bytes with 0x02/0x03 prefix"):
        PublicKey(bytes(33))
    off_curve = "not a curve point: no curve point for x coordinate"
    off_field = "not a curve point: x coordinate out of field range"
    for odd in (0, 1):
        verdicts = [_key_refusal(x, odd) for x in _EDGE_X]
        assert verdicts == [_lift_refusal(x, odd) for x in _EDGE_X]
        assert verdicts == [off_curve] * 3 + [off_field] * 2 + [None] * 2


@settings(max_examples=150, deadline=None)
@given(x=st.one_of(st.sampled_from(_EDGE_X), st.integers(0, 2**256 - 1)),
       odd=st.integers(0, 1))
def test_public_key_accepts_exactly_the_liftable_x(x, odd):
    """The Legendre-symbol check refuses exactly the x the square root
    cannot lift, with the same message."""
    assert _key_refusal(x, odd) == _lift_refusal(x, odd)


@settings(max_examples=150, deadline=None)
@given(a=st.one_of(st.sampled_from([0, 1, 2, 5, _P - 1, _P, 3 * _P]),
                   st.integers(0, 2**768)))
@example(a=0)
def test_jacobi_matches_euler_criterion(a):
    euler = pow(a, (_P - 1) // 2, _P)
    assert crypto._jacobi(a) == {0: 0, 1: 1, _P - 1: -1}[euler]


# ---------------------------------------------------------------------------
# Hex text: the one decoder every outside hex field goes through
# ---------------------------------------------------------------------------

_WHITESPACE = st.text(st.sampled_from(string.whitespace), max_size=3)


@given(data=st.binary(), before=_WHITESPACE, after=_WHITESPACE, upper=st.booleans())
def test_parse_hex_allows_surrounding_whitespace(data, before, after, upper):
    text = data.hex().upper() if upper else data.hex()
    assert parse_hex(before + text + after) == data


@given(data=st.binary(min_size=1), at=st.integers(min_value=0),
       char=st.characters().filter(lambda c: c not in string.hexdigits))
@example(data=b"\xab\xcd", at=1, char=" ")
def test_parse_hex_refuses_inner_whitespace_and_non_hex(data, at, char):
    text = data.hex()
    at = 1 + at % (len(text) - 1)  # strictly between two digits
    with pytest.raises(MalformedHex):
        parse_hex(text[:at] + char + text[at:])


# Hex digits weighted two to one against ASCII whitespace, the separators
# str.strip takes as whitespace, non-ASCII spaces, non-hex ASCII and
# non-ASCII digits.
_HEX_TEXT = st.text(st.one_of(
    st.sampled_from(string.hexdigits), st.sampled_from(string.hexdigits),
    st.sampled_from(string.whitespace + "\x1c\x1f\x85\u00a0\u2003" + "gxzG-+.:,"
                    + "\u0661\u0966\uff11\uff41")), max_size=12)


def _bytes_or_message(read, text):
    try:
        return read(text)
    except MalformedHex as exc:
        return str(exc)


@settings(max_examples=300)
@given(_HEX_TEXT)
@example(" ab cd ")
@example("ab\u00a0cd")
@example("\u2003abc\u00a0")
def test_parse_hex_answers_as_the_regex_reader(text):
    # fromhex decodes first and skips ASCII whitespace between digit pairs;
    # the answer, bytes or message, is still the regex reader's.
    assert _bytes_or_message(parse_hex, text) == _bytes_or_message(reftx.parse_hex, text)


def _read_or_error(read, text):
    try:
        return read(text)
    except EawardError as exc:
        return type(exc)


_KEY_HEX = st.integers(1, crypto.CURVE_ORDER - 1).map(
    lambda k: PrivateKey(k).public_key().hex())


@settings(max_examples=50)
@given(key=_KEY_HEX, before=_WHITESPACE, after=_WHITESPACE,
       at=st.integers(0, 66), inserted=st.sampled_from(["", " ", "\t", "z", "0"]))
def test_public_key_from_hex_reads_hex_as_parse_hex(key, before, after, at, inserted):
    text = before + key[:at] + inserted + key[at:] + after
    assert (_read_or_error(PublicKey.from_hex, text)
            == _read_or_error(lambda t: PublicKey(parse_hex(t)), text))
    if inserted.isspace() and 0 < at < 66:
        assert _read_or_error(PublicKey.from_hex, text) is MalformedHex


def test_public_key_uncompressed_serialization_roundtrip():
    key = PrivateKey.from_bytes(crypto.sha256(b"serialization"))
    pub = key.public_key()
    uncompressed = pub.serialize(compressed=False)
    assert len(uncompressed) == 65 and uncompressed[0] == 4
    assert PublicKey.from_point(pub.point()) == pub


# ---------------------------------------------------------------------------
# The Straus-Shamir w-NAF ladder and G's tables against the reference
# double-and-add
# ---------------------------------------------------------------------------
# A plain Jacobian double-and-add and a recovery by three separate
# multiplications: the slow reference the ladder must agree with.

_N = crypto.CURVE_ORDER
_G = (crypto._GX, crypto._GY)
_INFINITY = (0, 1, 0)


def _ref_double(pt):
    x, y, z = pt
    if not y or not z:
        return _INFINITY
    s = 4 * x * y * y % _P
    m = 3 * x * x % _P
    nx = (m * m - 2 * s) % _P
    ny = (m * (s - nx) - 8 * pow(y, 4, _P)) % _P
    return nx, ny, 2 * y * z % _P


def _ref_add(p, q):
    if not p[2]:
        return q
    if not q[2]:
        return p
    x1, y1, z1 = p
    x2, y2, z2 = q
    z1s, z2s = z1 * z1 % _P, z2 * z2 % _P
    u1, u2 = x1 * z2s % _P, x2 * z1s % _P
    s1, s2 = y1 * z2s * z2 % _P, y2 * z1s * z1 % _P
    if u1 == u2:
        return _INFINITY if s1 != s2 else _ref_double(p)
    h = (u2 - u1) % _P
    r = (s2 - s1) % _P
    h2 = h * h % _P
    h3 = h * h2 % _P
    u1h2 = u1 * h2 % _P
    nx = (r * r - h3 - 2 * u1h2) % _P
    ny = (r * (u1h2 - nx) - s1 * h3) % _P
    return nx, ny, h * z1 * z2 % _P


def _ref_to_affine(pt):
    x, y, z = pt
    if not z:
        return None
    zinv = pow(z, -1, _P)
    return x * zinv * zinv % _P, y * zinv ** 3 % _P


def reference_mul(k: int, affine_pt):
    acc, add = _INFINITY, (*affine_pt, 1)
    while k:
        if k & 1:
            acc = _ref_add(acc, add)
        add = _ref_double(add)
        k >>= 1
    return _ref_to_affine(acc)


def reference_public_key(scalar: int) -> PublicKey:
    return PublicKey.from_point(reference_mul(scalar, _G))


def reference_lift(x: int, odd: int) -> tuple[int, int]:
    """The curve point of x whose y has parity odd, by the square root
    (x**3 + 7)**((P+1)/4), which exists as P = 3 mod 4."""
    if x >= _P:
        raise RecoveryFailed("x coordinate out of field range")
    v = (x**3 + 7) % _P
    y = pow(v, (_P + 1) // 4, _P)
    if y * y % _P != v:
        raise RecoveryFailed("x**3 + 7 is not a square")
    return x, (y if y & 1 == odd else _P - y)


def reference_recover(sig: RecoverableSig, digest32: bytes) -> PublicKey:
    if not 0 < sig.r < _N or not 0 < sig.s < _N:
        raise RecoveryFailed("r/s out of range")
    big_r = reference_lift(sig.r + (sig.recovery_id >> 1) * _N, sig.recovery_id & 1)
    e = int.from_bytes(digest32, "big") % _N
    acc = _INFINITY
    s_r = reference_mul(sig.s, big_r)
    if s_r is not None:
        acc = _ref_add(acc, (*s_r, 1))
    if e:
        neg_e_g = reference_mul(_N - e, _G)
        if neg_e_g is not None:
            acc = _ref_add(acc, (*neg_e_g, 1))
    combined = _ref_to_affine(acc)
    if combined is None:
        raise RecoveryFailed("recovered point at infinity")
    q = reference_mul(pow(sig.r, -1, _N), combined)
    # A recovered key must be on the curve: check it as outside input would be.
    return PublicKey(PublicKey.from_point(q).data)


def _outcome(recover, sig, digest32):
    try:
        return recover(sig, digest32)
    except RecoveryFailed:
        return RecoveryFailed


EDGE_SCALARS = [1, 2, 3, _N - 1, _N - 2, 2**255, 2**128, 2**8 - 1]
scalars = st.one_of(st.sampled_from(EDGE_SCALARS), st.integers(min_value=1, max_value=_N - 1))


@settings(max_examples=40, deadline=None)
@given(k=scalars)
def test_public_key_matches_reference(k):
    assert PrivateKey(k).public_key() == reference_public_key(k)


# A k*G reads digit position p from table p // 26 in slot p % 26. Each seam
# scalar puts a digit on both sides of a seam between tables, one in each
# GLV half (k1, k2 = crypto._split(k)), with the halves' signs as noted. No
# half reaches 2**128 (|k1| < 0.64 * 2**128), so 128 is the top position a
# digit takes and position 129 never occurs.
_SEAM_SCALARS = [
    # k1 > 0 at 26, k2 > 0 at 25
    0x79DB99085778735F0BA9B90137F8DCA8CA4304094C17A22151473A64EB74BF09,
    # k1 > 0 at 51, k2 < 0 at 52
    0xD4831C5BAAFC62DE15261CD4749BA78DEF885FBC39D4C6E61174F5F5299EE004,
    # k1 < 0 at 77, k2 > 0 at 78
    0x262F41DAA583B2DAA7C28ADAD2D05EE5F6CF4434A66883F68D1C3C89B712DFB8,
    # k1 < 0 at 103, k2 < 0 at 104
    0x697997C0E4FB1C423C1F06B7C87DE59CF06D21BB3B7CEC6A6C26727B6413CB9E,
    # k1 > 0 at 128, k2 < 0
    0xD03E86E5420134F79E618F36BDB79E573AE17B8854B1E39D93317ED19A006F58,
    # k1 < 0, k2 < 0 at 128
    0x076EC8481B4D294B826DCFA8C26E527084B76CBD282222102535EA0C1F1AB659,
]


@settings(max_examples=60, deadline=None)
@given(k=st.integers(min_value=1, max_value=_N - 1))
@example(k=1)
@example(k=2)
@example(k=2**26)
@example(k=2**255)
@example(k=_N - 1)
@example(k=_N - 2)
@example(k=(_N + 1) // 2)
@example(k=_SEAM_SCALARS[0])
@example(k=_SEAM_SCALARS[1])
@example(k=_SEAM_SCALARS[2])
@example(k=_SEAM_SCALARS[3])
@example(k=_SEAM_SCALARS[4])
@example(k=_SEAM_SCALARS[5])
def test_mul_g_matches_reference(k):
    assert crypto._mul_g(k) == reference_mul(k, _G)


def test_g_tables_hold_odd_multiples_of_their_bases():
    # Entry i of table j is (2i+1) * 2**(26j) * G with BETA times its x:
    # each row starts at the reference base and adds 2 * base per entry.
    for j in range(5):
        expected = (*reference_mul(2 ** (26 * j), _G), 1)
        step = (*reference_mul(2 ** (26 * j + 1), _G), 1)
        table = crypto._g_table(j)
        assert len(table) == 64
        for x, y, beta_x in table:
            ex, ey = _ref_to_affine(expected)
            assert (x, y, beta_x) == (ex, ey, crypto._BETA * ex % _P)
            expected = _ref_add(expected, step)


@settings(max_examples=25, deadline=None)
@given(d=scalars, digest=st.binary(min_size=32, max_size=32))
def test_sign_matches_independent_implementation(d, digest):
    got = ecdsa_sign_recoverable(PrivateKey(d), digest).to_bytes()
    assert got == refcrypto.sign_recoverable(d, digest)


# r + N is a field element only for r < P - N, so small r reach recovery ids 2/3.
@settings(max_examples=60, deadline=None)
@given(
    r=st.one_of(st.sampled_from(EDGE_SCALARS + [crypto._GX]),
                st.integers(min_value=1, max_value=_P - _N - 1),
                st.integers(min_value=1, max_value=_N - 1)),
    s=scalars,
    header=st.integers(min_value=27, max_value=34),
    digest=st.one_of(st.binary(min_size=32, max_size=32),
                     st.sampled_from([bytes(32), _N.to_bytes(32, "big")])),
)
@example(r=crypto._GX, s=5, header=27, digest=(5).to_bytes(32, "big"))  # R = G, s = e: Q = 0
@example(r=crypto._GX, s=5, header=28, digest=bytes(32))  # R = -G: the other parity of G.x
@example(r=5, s=1, header=27, digest=bytes(32))  # 5**3 + 7 is not a square mod P
@example(r=2, s=3, header=29, digest=(7).to_bytes(32, "big"))  # R.x = 2 + N, even y
@example(r=2, s=3, header=30, digest=(7).to_bytes(32, "big"))  # R.x = 2 + N, odd y
@example(r=_P - _N, s=1, header=29, digest=bytes(32))  # r + N = P: outside the field
def test_recover_matches_reference(r, s, header, digest):
    sig = RecoverableSig(header, r, s)
    assert _outcome(ecdsa_recover, sig, digest) == _outcome(reference_recover, sig, digest)


@settings(max_examples=30, deadline=None)
@given(k1=scalars, k2=scalars)
@example(k1=1, k2=1)                    # second addition meets the accumulator: doubling
@example(k1=1, k2=_N - 1)               # the sum cancels to infinity
@example(k1=2**200 + 7, k2=_N - 2**200 - 7)
def test_two_term_ladder_matches_reference(k1, k2):
    # Both terms over G with the two table widths the recovery uses, so the
    # mixed addition meets its doubling and cancelling cases.
    got = crypto._multiply([
        (k1, crypto._G_WINDOW, [crypto._g_table()]),
        (k2, crypto._R_WINDOW, [crypto._odd_multiples(_G, reference_mul(2, _G), crypto._R_WINDOW)]),
    ])
    assert got == reference_mul((k1 + k2) % _N, _G)


@settings(max_examples=30, deadline=None)
@given(k1=scalars, k2=scalars)
@example(k1=1, k2=1)                    # second addition meets the accumulator: doubling
@example(k1=1, k2=_N - 1)               # the sum cancels to infinity
@example(k1=2**200 + 7, k2=_N - 2**200 - 7)
def test_two_term_ladder_over_another_base_matches_reference(k1, k2):
    # The same sums over B = 7*G, through tables built as recovery builds
    # R's, so no term draws on the fixed tables of G.
    base = reference_mul(7, _G)
    twice = reference_mul(14, _G)
    got = crypto._multiply([
        (k1, crypto._G_WINDOW, [crypto._odd_multiples(base, twice, crypto._G_WINDOW)]),
        (k2, crypto._R_WINDOW, [crypto._odd_multiples(base, twice, crypto._R_WINDOW)]),
    ])
    assert got == reference_mul((k1 + k2) % _N, base)


def _small_points():
    """The points k*G and LAMBDA*k*G for 0 < |k| <= 8, by their scalars mod N."""
    points = {}
    for k in range(1, 9):
        x, y = reference_mul(k, _G)
        for m, px in ((k, x), (k * crypto._LAMBDA, crypto._BETA * x % _P)):
            points[m % _N] = px, y
            points[-m % _N] = px, _P - y
    return points


_SMALL = _small_points()
_LAMBDA_2 = 2 * crypto._LAMBDA % _N


def _hold(m):
    """Slots that add m*G at 129 and -m*G at 128 down to 31: the accumulator
    doubles to 2m*G and adds back down to m*G in each of those 98 slots."""
    return {129: [m], **{i: [-m % _N] for i in range(31, 129)}}


# Sparse slots of small points: sums no w-NAF recoding builds, with repeated
# and opposite points in one slot. The _hold examples meet the accumulator
# at 2*G (or 2*LAMBDA*G) in slot 30, after 98 doublings and additions.
@settings(max_examples=60, deadline=None)
@given(points=st.dictionaries(st.integers(0, 129),
                              st.lists(st.sampled_from(sorted(_SMALL)), min_size=1, max_size=4),
                              max_size=8))
@example(points={})                                   # every slot empty: infinity
@example(points={**_hold(1), 30: [2], 0: [3]})        # q is the accumulator: doubling
@example(points={**_hold(1), 30: [_N - 2], 0: [3]})   # q is its negative: infinity, then 3*G
@example(points={**_hold(1), 30: [_N - 2]})           # the sum ends at infinity
@example(points={**_hold(1), 30: [_N - 1, 1, 5]})     # 2G - G, then G again: doubling
@example(points={**_hold(1), 30: [_N - 1, _N - 1]})   # 2G - G - G: infinity
@example(points={**_hold(crypto._LAMBDA), 30: [_LAMBDA_2]})           # doubling, of LAMBDA-images
@example(points={**_hold(crypto._LAMBDA), 30: [_N - _LAMBDA_2, 7]})  # infinity, then 7*G
def test_sum_matches_reference(points):
    slots = [[_SMALL[m] for m in points.get(i, [])] for i in range(130)]
    total = sum(m << i for i, ms in points.items() for m in ms)
    assert _ref_to_affine(crypto._sum(slots)) == reference_mul(total % _N, _G)


# Representatives of field elements as the folds leave them: negative, above
# P, up to 2**360, and v - P, v + P, v + 3*P of a residue v.
_UNREDUCED = st.one_of(
    st.integers(-(2**140), -1),
    st.integers(_P, 2**360),
    st.builds(lambda v, j: v + j * _P, st.integers(0, _P - 1), st.sampled_from([-1, 1, 3])),
)
_MULTIPLE_OF_P = st.one_of(st.sampled_from([-1, 0, 1, 3]), st.integers(0, 2**360 // _P))


@settings(max_examples=100, deadline=None)
@given(points=st.lists(st.tuples(_UNREDUCED, _UNREDUCED, _UNREDUCED.filter(lambda z: z % _P)),
                       min_size=1, max_size=3))
@example(points=[(-1, -(2**140), _P + 1)])
@example(points=[(2**360 - 1, -_P, -(2**140))])
def test_batch_to_affine_takes_unreduced_coordinates(points):
    assert crypto._batch_to_affine(points) == [_ref_to_affine(pt) for pt in points]


def _unreduced_jacobian(k, z, jx, jy):
    """k*G in Jacobian form over z, each coordinate moved by a multiple of P."""
    x, y = reference_mul(k, _G)
    return x * z * z % _P + jx * _P, y * z**3 % _P + jy * _P, z


@settings(max_examples=60, deadline=None)
@given(k1=scalars, k2=scalars, z=_UNREDUCED.filter(lambda z: z % _P),
       jx=_MULTIPLE_OF_P, jy=_MULTIPLE_OF_P)
@example(k1=1, k2=2, z=-(2**140), jx=-1, jy=3)
@example(k1=_N - 1, k2=2, z=2**360, jx=2**360 // _P - 1, jy=-1)
def test_sum_adds_to_an_unreduced_start(k1, k2, z, jx, jy):
    # k1*G, unreduced, plus k2*G; its unreduced sum then adds k2*G again.
    assume((k1 - k2) % _N and (k1 + k2) % _N and (k1 + 2 * k2) % _N)
    q = reference_mul(k2, _G)
    once = crypto._sum([[q]], *_unreduced_jacobian(k1, z, jx, jy))
    assert _ref_to_affine(once) == reference_mul((k1 + k2) % _N, _G)
    assert crypto._batch_to_affine([crypto._sum([[q]], *once)]) == [
        reference_mul((k1 + 2 * k2) % _N, _G)]


# A start of k*G, unreduced, is doubled once per slot below the top, so it
# counts 2**(len(slots) - 1) times; the top slot's first point meets it.
@settings(max_examples=60, deadline=None)
@given(k=scalars, z=_UNREDUCED.filter(lambda z: z % _P), jx=_MULTIPLE_OF_P, jy=_MULTIPLE_OF_P,
       points=st.lists(st.lists(st.sampled_from(sorted(_SMALL)), max_size=2),
                       min_size=1, max_size=3))
@example(k=1, z=-(2**140), jx=-1, jy=3, points=[[1]])                  # q is the start: doubling
@example(k=1, z=2**360, jx=0, jy=-1, points=[[3], [], [1, 1]])         # doubling, then G more
@example(k=1, z=-(2**140), jx=3, jy=0, points=[[_N - 1]])              # q cancels it: infinity
@example(k=1, z=2**360, jx=-1, jy=3, points=[[5], [], [_N - 1]])       # infinity, then 5*G
@example(k=crypto._LAMBDA, z=3, jx=1, jy=1, points=[[], [crypto._LAMBDA]])  # LAMBDA-images
def test_sum_from_a_start_matches_reference(k, z, jx, jy, points):
    slots = [[_SMALL[m] for m in ms] for ms in points]
    total = (k << len(points) - 1) + sum(m << i for i, ms in enumerate(points) for m in ms)
    got = crypto._sum(slots, *_unreduced_jacobian(k, z, jx, jy))
    assert _ref_to_affine(got) == reference_mul(total % _N, _G)


@settings(max_examples=100, deadline=None)
@given(v=st.one_of(st.sampled_from([0, 1, 2, 7, _P - 1, _P - 2]), st.integers(0, _P - 1)))
def test_inverse_sqrt_is_the_power(v):
    # P - 1 = -1 is not a square mod P (P = 3 mod 4).
    assert crypto._inverse_sqrt(v) == pow(v, (_P - 3) // 4, _P)


@settings(max_examples=100, deadline=None)
@given(x=st.one_of(st.sampled_from(_EDGE_X + [2 + _N, _P - _N]), st.integers(0, 2**256 - 1)),
       odd=st.integers(0, 1))
def test_lift_x_gives_the_point_and_the_inverse_of_y(x, odd):
    try:
        expected = reference_lift(x, odd)
    except RecoveryFailed:
        with pytest.raises(RecoveryFailed):
            crypto._lift_x(x, odd)
        return
    lx, ly, y_inv = crypto._lift_x(x, odd)
    assert (lx, ly) == expected
    assert ly * y_inv % _P == 1


def test_endomorphism_constants():
    # BETA and LAMBDA are nontrivial cube roots of 1, and the map
    # (x, y) -> (BETA*x, y) multiplies G by LAMBDA.
    assert crypto._BETA != 1 and pow(crypto._BETA, 3, _P) == 1
    assert crypto._LAMBDA != 1 and pow(crypto._LAMBDA, 3, _N) == 1
    assert reference_mul(crypto._LAMBDA, _G) == (crypto._BETA * crypto._GX % _P, crypto._GY)


@settings(max_examples=200, deadline=None)
@given(k=st.integers(min_value=0, max_value=_N - 1))
@example(k=0)
@example(k=1)
@example(k=_N - 1)
@example(k=crypto._LAMBDA)
@example(k=_N - crypto._LAMBDA)
@example(k=2**128)
@example(k=_N // 2)
def test_glv_split_property(k):
    k1, k2 = crypto._split(k)
    assert (k1 + k2 * crypto._LAMBDA - k) % _N == 0
    assert max(abs(k1), abs(k2)) < 2**129


def test_recover_with_zero_digest_matches_reference():
    # e = 0 drops the G term entirely: digest 0 and digest N both reduce to it.
    key = PrivateKey.from_bytes(crypto.sha256(b"zero digest"))
    for digest in (bytes(32), _N.to_bytes(32, "big")):
        sig = ecdsa_sign_recoverable(key, digest)
        assert ecdsa_recover(sig, digest) == key.public_key() == reference_recover(sig, digest)


def test_network_by_name():
    assert crypto.network_by_name("mainnet") is crypto.MAINNET
    assert crypto.network_by_name("testnet") is crypto.TESTNET
    with pytest.raises(ValueError, match="^unknown network 'regtest'$"):
        crypto.network_by_name("regtest")


def test_p2pkh_network_reads_the_version_byte():
    payload = bytes.fromhex(ADDR_C_HASH160)
    assert p2pkh_network(Address.from_text(ADDR_C)) is crypto.TESTNET
    assert p2pkh_network(Address.from_parts(0x00, payload)) is crypto.MAINNET
    for p2sh in (0x05, 0xC4):
        assert p2pkh_network(Address.from_parts(p2sh, payload)) is None
