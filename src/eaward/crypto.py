"""Byte-level primitives: digests, compact sizes, base58check addresses,
recoverable ECDSA.

Everything downstream (scripts, escrow addresses, signed messages, anchors)
reduces to these operations. All functions are pure; signing is deterministic
(RFC 6979 nonces) so golden vectors reproduce bit-for-bit across runs.
"""

from __future__ import annotations

import functools
import hashlib
import struct
from collections import namedtuple

from .errors import EawardError, parse_hex

# --- secp256k1 domain parameters ---
_P = 2**256 - 2**32 - 977
_M = 2**256 - 1  # the low 256 bits of a product
_C = 2**32 + 977  # 2**256 mod P: what the bits above them are worth
_N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
_GX = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
_GY = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

CURVE_ORDER = _N

BASE58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"


class CryptoError(EawardError):
    pass


class RecoveryFailed(CryptoError):
    pass


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# OpenSSL 3 builds may lack the legacy RIPEMD-160 provider; the pure-Python
# implementation stands in for it there.
try:
    hashlib.new("ripemd160")
except ValueError:
    from ._ripemd160 import ripemd160
else:
    def ripemd160(data: bytes) -> bytes:
        return hashlib.new("ripemd160", data).digest()


def hash256(data: bytes) -> bytes:
    """Double SHA-256, the transaction/checksum digest."""
    return sha256(sha256(data))


def hash160(data: bytes) -> bytes:
    """RIPEMD-160 of SHA-256, the 20-byte digest addresses commit to."""
    return ripemd160(sha256(data))


# ---------------------------------------------------------------------------
# Byte encodings: compact size, base58check
# ---------------------------------------------------------------------------

def write_compact_size(n: int) -> bytes:
    """The variable-length integer that prefixes every length in a
    transaction and a signed message."""
    if n < 0xFD:
        return struct.pack("<B", n)
    if n <= 0xFFFF:
        return b"\xfd" + struct.pack("<H", n)
    if n <= 0xFFFFFFFF:
        return b"\xfe" + struct.pack("<I", n)
    return b"\xff" + struct.pack("<Q", n)


@functools.cache
def _base58_pairs() -> list[str]:
    """The 58 * 58 two-digit strings, built on the first encode."""
    return [a + b for a in BASE58_ALPHABET for b in BASE58_ALPHABET]


def base58check_encode(version: int, payload: bytes) -> str:
    raw = bytes([version]) + payload
    raw += hash256(raw)[:4]
    num = int.from_bytes(raw, "big")
    pairs = _base58_pairs()
    digits = []
    while num:  # two digits per division
        num, rem = divmod(num, 58 * 58)
        digits.append(pairs[rem])
    # The top pair may start with a zero digit; leading zero bytes are the
    # only leading "1"s.
    text = "".join(reversed(digits)).lstrip("1")
    pad = len(raw) - len(raw.lstrip(b"\x00"))
    return "1" * pad + text


def base58check_decode(text: str) -> tuple[int, bytes]:
    """Inverse of encode; returns (version, 20-byte payload).

    Raises CryptoError for a non-base58 character, a wrong length or a bad
    checksum, checked in that order.
    """
    num = 0
    for ch in text:
        idx = BASE58_ALPHABET.find(ch)
        if idx < 0:
            raise CryptoError(f"{ch!r} is not a base58 character")
        num = num * 58 + idx
    body = num.to_bytes((num.bit_length() + 7) // 8, "big")
    pad = len(text) - len(text.lstrip("1"))
    raw = b"\x00" * pad + body
    if len(raw) != 25:
        raise CryptoError(f"decoded to {len(raw)} bytes, expected 25")
    if hash256(raw[:-4])[:4] != raw[-4:]:
        raise CryptoError(f"bad checksum in {text!r}")
    return raw[0], raw[1:-4]


class Address(namedtuple("Address", "version payload text")):
    """A base58check address: version byte + 20-byte payload + its text form."""

    __slots__ = ()

    @classmethod
    def from_parts(cls, version: int, payload: bytes) -> "Address":
        if len(payload) != 20:
            raise CryptoError("address payload must be 20 bytes")
        return tuple.__new__(cls, (version, payload, base58check_encode(version, payload)))

    @classmethod
    def from_text(cls, text: str) -> "Address":
        version, payload = base58check_decode(text)
        return cls(version, payload, text)

    def __str__(self) -> str:
        return self.text


class Network(namedtuple("Network", "name p2pkh_version p2sh_version")):
    """Address-version table for a chain."""

    __slots__ = ()


MAINNET = Network("mainnet", 0x00, 0x05)
TESTNET = Network("testnet", 0x6F, 0xC4)

_NETWORKS = {"mainnet": MAINNET, "testnet": TESTNET}


def network_by_name(name: str) -> Network:
    try:
        return _NETWORKS[name]
    except KeyError:
        raise ValueError(f"unknown network {name!r}") from None


def p2pkh_network(address: Address) -> Network | None:
    """The network whose P2PKH version byte the address carries, if any."""
    return next((n for n in _NETWORKS.values() if n.p2pkh_version == address.version), None)


def pubkey_to_address(key: PublicKey, net: Network, compressed: bool = True) -> Address:
    return Address.from_parts(net.p2pkh_version, hash160(key.serialize(compressed)))


# ---------------------------------------------------------------------------
# secp256k1 point arithmetic (a = 0)
#
# Affine points are (x, y), None being infinity; Jacobian points are
# (X, Y, Z) for (X/Z^2, Y/Z^3). Every multiple is _multiply, a Straus-Shamir
# sum over w-NAF digits as in libsecp256k1: the GLV endomorphism splits each
# scalar into two halves of at most 129 bits, all halves share one chain of
# doublings in _sum, and each nonzero digit adds a precomputed odd multiple.
# A multiple of G alone (a signing nonce, a public key) reads its digits from
# five tables of odd multiples of G, each base 2**26 times the last, so its
# chain is 25 doublings long. Recovery's second term has a variable base R,
# whose lift also yields 1/y, so R's table needs no inversion for 2R. The
# Jacobian doubling and the mixed addition are written once, in _sum: the
# tables' rows and bases are _sums too. The arithmetic is variable-time.
#
# No hot formula divides by P: as 2**256 = C (mod P), the fold
# t = (t & M) + (t >> 256) * C keeps t mod P for any int t, negative too
# (>> floors, & reads two's complement). Two folds bring a product near
# 2**256 and one is left on a value that only feeds a product, so _sum and
# _inverse_sqrt hold unreduced values until _batch_to_affine or a zero test
# reduces them (z is 0 only at infinity: a finite z is a product of nonzero
# residues).
# ---------------------------------------------------------------------------

# The endomorphism (x, y) -> (BETA*x, y) multiplies every point by LAMBDA
# (Gallant-Lambert-Vanstone, CRYPTO 2001). A1, B1, A2, B2 is a reduced basis
# of the lattice {(a, b): a + b*LAMBDA = 0 mod N}, as in libsecp256k1.
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
_LAMBDA = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72
_A1 = _B2 = 0x3086D221A7D46BCDE86C90E49284EB15
_B1 = -0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8


def _split(k: int) -> tuple[int, int]:
    """(k1, k2) with k1 + k2*LAMBDA = k (mod N) and |k1|, |k2| < 2**129,
    for 0 <= k < N: k minus the nearest lattice point."""
    c1 = (2 * _B2 * k + _N) // (2 * _N)
    c2 = (-2 * _B1 * k + _N) // (2 * _N)
    return k - c1 * _A1 - c2 * _A2, -c1 * _B1 - c2 * _B2


def _batch_to_affine(points):
    """Affine forms of finite Jacobian points, with a single field
    inversion (Montgomery's trick)."""
    prefix = []
    acc = 1
    for _, _, z in points:
        prefix.append(acc)
        acc = acc * z % _P
    inv = pow(acc, -1, _P)
    out = [None] * len(points)
    for i in range(len(points) - 1, -1, -1):
        x, y, z = points[i]
        zinv = inv * prefix[i] % _P
        inv = inv * z % _P
        zinv2 = zinv * zinv % _P
        out[i] = (x * zinv2 % _P, y * zinv2 * zinv % _P)
    return out


def _odd_multiples(pt, twice, w: int):
    """[1*pt, 3*pt, ..., (2**(w-1) - 1)*pt] as (x, y, BETA*x) triples: the
    table for width-w NAF digits of an affine pt, whose (BETA*x, y) are the
    same odd multiples of LAMBDA*pt. twice is 2*pt, affine."""
    jac = [(*pt, 1)]
    for _ in range((1 << (w - 2)) - 1):
        jac.append(_sum([[twice]], *jac[-1]))
    return [(x, y, _BETA * x % _P) for x, y in _batch_to_affine(jac)]


def _wnaf(k: int, w: int) -> list[tuple[int, int]]:
    """The nonzero digits of the width-w NAF of k >= 0 as (position, digit)
    pairs, so k = sum(d * 2**position): every digit is odd with
    |d| < 2**(w-1), and digits are at least w positions apart."""
    digits = []
    pos = 0
    while k:
        zeros = (k & -k).bit_length() - 1
        k >>= zeros
        pos += zeros
        d = k & ((1 << w) - 1)
        if d >> (w - 1):
            d -= 1 << w
        digits.append((pos, d))
        k = (k - d) >> w
        pos += w
    return digits


def _multiply(terms, span: int = 130) -> tuple[int, int] | None:
    """Sum of k*P over terms (k, w, tables), 0 <= k < N, as an affine point
    or None for infinity. k*P is k1*P + k2*(LAMBDA*P), and tables[j] is
    _odd_multiples of 2**(span*j)*P for width w: the digit at position pos
    adds its point from tables[pos // span] in slot pos % span of _sum. The
    default span takes every w-NAF position of |half| < 2**129 from one table."""
    slots = [[] for _ in range(span)]
    at = slots * (130 // span)  # at[pos] is slots[pos % span]
    for k, w, tables in terms:
        for half, lam in zip(_split(k), (False, True)):
            for pos, d in _wnaf(abs(half), w):
                x, y, beta_x = tables[pos // span][abs(d) >> 1]
                if (d < 0) != (half < 0):
                    y = _P - y
                at[pos].append((beta_x if lam else x, y))
    x, y, z = _sum(slots)
    return _batch_to_affine([(x, y, z)])[0] if z else None


def _sum(slots, x=0, y=0, z=0):
    """2**(len(slots)-1) * (x, y, z) + the sum of 2**i * q over the affine q
    in each slots[i], as an unreduced Jacobian triple, z = 0 being infinity:
    per slot, top down, a mixed addition per q, then a doubling, except
    after slot 0."""
    p, mask, c = _P, _M, _C
    for i in range(len(slots) - 1, -1, -1):
        for qx, qy in slots[i]:
            if not z:
                x, y, z = qx, qy, 1
                continue
            zz = ((t := z * z) & mask) + (t >> 256) * c
            h = ((t := qx * zz - x) & mask) + (t >> 256) * c
            h = (h & mask) + (h >> 256) * c
            r = ((t := qy * zz * z - y) & mask) + (t >> 256) * c
            r = (r & mask) + (r >> 256) * c
            if not h % p:  # q is the accumulator (double it) or its negative
                x, y, z = _sum([[], []], x, y, z) if not r % p else (0, 0, 0)
                continue
            hh = ((t := h * h) & mask) + (t >> 256) * c
            hhh = ((t := h * hh) & mask) + (t >> 256) * c
            v = ((t := x * hh) & mask) + (t >> 256) * c
            x = ((t := r * r - hhh - 2 * v) & mask) + (t >> 256) * c
            x = (x & mask) + (x >> 256) * c
            y = ((t := r * (v - x) - y * hhh) & mask) + (t >> 256) * c
            y = (y & mask) + (y >> 256) * c
            z = ((t := z * h) & mask) + (t >> 256) * c
            z = (z & mask) + (z >> 256) * c
        if i and z:  # no curve point has y = 0, so none doubles to infinity
            yy = ((t := y * y) & mask) + (t >> 256) * c
            s = ((t := x * yy << 2) & mask) + (t >> 256) * c
            m = ((t := 3 * x * x) & mask) + (t >> 256) * c
            z = ((t := y * z << 1) & mask) + (t >> 256) * c
            z = (z & mask) + (z >> 256) * c
            x = ((t := m * m - (s << 1)) & mask) + (t >> 256) * c
            x = (x & mask) + (x >> 256) * c
            y = ((t := m * (s - x) - (yy * yy << 3)) & mask) + (t >> 256) * c
            y = (y & mask) + (y >> 256) * c
    return x, y, z


# G's tables: table j holds the 64 odd multiples of 2**(26*j)*G and of
# LAMBDA times them, built on first use. Recovery's G term reads table 0
# alone; five tables cover the 130 digit positions of a GLV half, so a k*G
# sums in 26 slots. A variable base (the R of a recovery) gets a width-5
# table of 8 points per call.
_G_WINDOW = 8
_G_SPAN = 26
_R_WINDOW = 5


@functools.cache
def _g_table(j: int = 0):
    if j:  # 2**26 times table j - 1's base
        pt = _sum([[]] * _G_SPAN + [[_g_table(j - 1)[0][:2]]])
    else:
        pt = (_GX, _GY, 1)
    return _odd_multiples(*_batch_to_affine([pt, _sum([[], []], *pt)]), _G_WINDOW)


def _mul_g(k: int) -> tuple[int, int] | None:
    """k*G for 0 <= k < N, affine or None for infinity."""
    return _multiply([(k, _G_WINDOW, [_g_table(j) for j in range(5)])], _G_SPAN)


_OFF_FIELD = "x coordinate out of field range"
_OFF_CURVE = "no curve point for x coordinate"


def _jacobi(a: int) -> int:
    """The Legendre symbol (a | P): 1 for a nonzero square mod P, -1 for a
    non-square, 0 for a multiple of P. The binary Jacobi-symbol algorithm
    (Cohen, A Course in Computational Algebraic Number Theory, Alg. 1.4.10),
    several times cheaper here than Euler's criterion or a square root."""
    a %= _P
    n = _P
    t = 1
    while a:
        if not a & 1:
            zeros = (a & -a).bit_length() - 1
            a >>= zeros
            # (2 | n) = -1 for n = 3, 5 mod 8.
            if zeros & 1 and (n & 7) in (3, 5):
                t = -t
        # Reciprocity flips the sign when a = n = 3 mod 4.
        if a & n & 2:
            t = -t
        a, n = n % a, a
    return t if n == 1 else 0


def _squares_times(a: int, n: int, b: int) -> int:
    """a**(2**n) * b mod P, unreduced: n folded squarings and a product."""
    for _ in range(n):
        a = ((t := a * a) & _M) + (t >> 256) * _C
        a = (a & _M) + (a >> 256) * _C
    a = ((t := a * b) & _M) + (t >> 256) * _C
    return (a & _M) + (a >> 256) * _C


def _inverse_sqrt(v: int) -> int:
    """v**((P-3)/4) mod P, 1/sqrt(v) for a nonzero square v, by
    libsecp256k1's addition chain; vK is v**(2**K - 1)."""
    v2 = _squares_times(v, 1, v)
    v3 = _squares_times(v2, 1, v)
    v6 = _squares_times(v3, 3, v3)
    v11 = _squares_times(_squares_times(v6, 3, v3), 2, v2)
    v22 = _squares_times(v11, 11, v11)
    v44 = _squares_times(v22, 22, v22)
    v88 = _squares_times(v44, 44, v44)
    v223 = _squares_times(_squares_times(_squares_times(v88, 88, v88), 44, v44), 3, v3)
    return _squares_times(_squares_times(_squares_times(v223, 23, v22), 5, v), 3, v2) % _P


def _lift_x(x: int, odd: int) -> tuple[int, int, int]:
    """(x, y, 1/y) for the curve point of x whose y has parity odd: with
    v = x**3 + 7 and t = v**((P-3)/4), y = v*t and y*t = v**((P-1)/2) = 1."""
    if x >= _P:
        raise RecoveryFailed(_OFF_FIELD)
    v = (x * x * x + 7) % _P
    t = _inverse_sqrt(v)
    y = v * t % _P
    if y * y % _P != v:
        raise RecoveryFailed(_OFF_CURVE)
    if (y & 1) != odd:
        y, t = _P - y, _P - t
    return x, y, t


# ---------------------------------------------------------------------------
# Keys and signatures
# ---------------------------------------------------------------------------

class PublicKey(namedtuple("PublicKey", "data")):
    """A curve point in 33-byte compressed SEC1 form (prefix 0x02/0x03).

    Third-party scripts may carry 65-byte uncompressed keys; those are
    handled as raw pushes by the script decoder and never become PublicKey
    instances.
    """

    __slots__ = ()

    def __new__(cls, data: bytes):
        if len(data) != 33 or data[0] not in (2, 3):
            raise CryptoError("public key must be 33 bytes with 0x02/0x03 prefix")
        # x is on the curve when x**3 + 7 is a square; y is left to point().
        # No curve point has y = 0 (the group order is odd), so the symbol
        # is never 0 here and either prefix names a point.
        x = int.from_bytes(data[1:], "big")
        if x >= _P:
            raise CryptoError(f"not a curve point: {_OFF_FIELD}")
        if _jacobi(x * x * x + 7) < 0:
            raise CryptoError(f"not a curve point: {_OFF_CURVE}")
        return tuple.__new__(cls, (data,))

    @classmethod
    def from_point(cls, point: tuple[int, int]) -> "PublicKey":
        """The key of a curve point this module computed. The point is
        not checked again; outside input goes through PublicKey(bytes)."""
        x, y = point
        return tuple.__new__(cls, (bytes([2 + (y & 1)]) + x.to_bytes(32, "big"),))

    @classmethod
    def from_hex(cls, text: str) -> "PublicKey":
        return cls(parse_hex(text))

    def point(self) -> tuple[int, int]:
        return _lift_x(int.from_bytes(self.data[1:], "big"), self.data[0] & 1)[:2]

    def serialize(self, compressed: bool = True) -> bytes:
        if compressed:
            return self.data
        x, y = self.point()
        return b"\x04" + x.to_bytes(32, "big") + y.to_bytes(32, "big")

    def hex(self) -> str:
        return self.data.hex()


class PrivateKey(namedtuple("PrivateKey", "scalar compressed")):
    __slots__ = ()

    def __new__(cls, scalar: int, compressed: bool = True):
        if not 0 < scalar < _N:
            raise CryptoError("private key scalar out of range")
        return super().__new__(cls, scalar, compressed)

    @classmethod
    def from_bytes(cls, raw: bytes, compressed: bool = True) -> "PrivateKey":
        if len(raw) != 32:
            raise CryptoError("private key must be 32 bytes")
        return cls(int.from_bytes(raw, "big"), compressed)

    def public_key(self) -> PublicKey:
        return PublicKey.from_point(_mul_g(self.scalar))


class RecoverableSig(namedtuple("RecoverableSig", "header r s")):
    """header(1) || r(32) || s(32); header 27..34 encodes recovery id and
    whether the signer's key serializes compressed."""

    __slots__ = ()

    def __new__(cls, header: int, r: int, s: int):
        if not 27 <= header <= 34:
            raise RecoveryFailed(f"header byte {header} out of range 27..34")
        return super().__new__(cls, header, r, s)

    @property
    def recovery_id(self) -> int:
        return (self.header - 27) & 3

    @property
    def compressed(self) -> bool:
        return self.header >= 31

    def to_bytes(self) -> bytes:
        return bytes([self.header]) + self.r.to_bytes(32, "big") + self.s.to_bytes(32, "big")

    @classmethod
    def from_bytes(cls, raw: bytes) -> "RecoverableSig":
        if len(raw) != 65:
            raise RecoveryFailed(f"recoverable signature must be 65 bytes, got {len(raw)}")
        return cls(raw[0], int.from_bytes(raw[1:33], "big"), int.from_bytes(raw[33:], "big"))


def _rfc6979_nonces(scalar: int, digest32: bytes):
    """Deterministic k candidates per RFC 6979 with HMAC-SHA256 (qlen = hlen = 256)."""
    import hmac

    h1 = (int.from_bytes(digest32, "big") % _N).to_bytes(32, "big")
    x = scalar.to_bytes(32, "big")
    v = b"\x01" * 32
    k = b"\x00" * 32
    k = hmac.new(k, v + b"\x00" + x + h1, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    k = hmac.new(k, v + b"\x01" + x + h1, hashlib.sha256).digest()
    v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        candidate = int.from_bytes(v, "big")
        if 0 < candidate < _N:
            yield candidate
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


def ecdsa_sign_recoverable(key: PrivateKey, digest32: bytes) -> RecoverableSig:
    """Sign a 32-byte digest; deterministic, low-s normalized."""
    if len(digest32) != 32:
        raise CryptoError("digest must be 32 bytes")
    e = int.from_bytes(digest32, "big") % _N
    for k in _rfc6979_nonces(key.scalar, digest32):
        point = _mul_g(k)
        if point is None:
            continue
        rx, ry = point
        r = rx % _N
        if r == 0:
            continue
        s = pow(k, -1, _N) * (e + r * key.scalar) % _N
        if s == 0:
            continue
        recid = (ry & 1) | (2 if rx >= _N else 0)
        if s > _N // 2:
            s = _N - s
            recid ^= 1
        header = 27 + recid + (4 if key.compressed else 0)
        return RecoverableSig(header, r, s)
    raise CryptoError("nonce generation exhausted")  # pragma: no cover


def ecdsa_recover(sig: RecoverableSig, digest32: bytes) -> PublicKey:
    """The unique public key for which sig verifies over digest32.

    Raises RecoveryFailed when r/s are out of range or no curve solution
    exists; the caller decides whether that is an error or a clean "false".
    """
    if len(digest32) != 32:
        raise CryptoError("digest must be 32 bytes")
    if not 0 < sig.r < _N or not 0 < sig.s < _N:
        raise RecoveryFailed("r/s out of range")
    recid = sig.recovery_id
    x, y, y_inv = _lift_x(sig.r + (recid >> 1) * _N, recid & 1)
    slope = 3 * x * x * y_inv * (_P + 1 >> 1) % _P  # 3x**2 / 2y, at R
    x2 = (slope * slope - 2 * x) % _P
    twice = x2, (slope * (x - x2) - y) % _P
    e = int.from_bytes(digest32, "big") % _N
    r_inv = pow(sig.r, -1, _N)
    # Q = r^-1 * (s*R - e*G) = (-e * r^-1)*G + (s * r^-1)*R
    q = _multiply([
        (-e * r_inv % _N, _G_WINDOW, [_g_table()]),
        (sig.s * r_inv % _N, _R_WINDOW, [_odd_multiples((x, y), twice, _R_WINDOW)]),
    ])
    if q is None:
        raise RecoveryFailed("recovered point at infinity")
    return PublicKey.from_point(q)
