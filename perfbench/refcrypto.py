"""Reference primitives the input generator uses to build ground truth.

Written from the public specifications (SEC 2 secp256k1, RFC 6979,
RIPEMD-160, base58check, the legacy transaction wire format) and kept apart
from the package under test: every expected answer the benchmark checks is
computed here, never by calling the code being measured.

Scalar multiplication of the generator uses an 8-bit comb table, so that
building a few thousand signed messages takes about a second.
"""

from __future__ import annotations

import hashlib
import hmac
import struct

P = 2**256 - 2**32 - 977
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
G = (0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798,
     0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8)

B58 = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
MESSAGE_MAGIC = b"\x18Bitcoin Signed Message:\n"
TESTNET_P2PKH = 0x6F
TESTNET_P2SH = 0xC4


# ---------------------------------------------------------------------------
# Digests
# ---------------------------------------------------------------------------

def sha256(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def hash256(data: bytes) -> bytes:
    return sha256(sha256(data))


def _ripemd160_py(data: bytes) -> bytes:
    """RIPEMD-160 (Dobbertin, Bosselaers, Preneel 1996), used only when the
    hashlib provider lacks it."""
    sl = [11, 14, 15, 12, 5, 8, 7, 9, 11, 13, 14, 15, 6, 7, 9, 8,
          7, 6, 8, 13, 11, 9, 7, 15, 7, 12, 15, 9, 11, 7, 13, 12,
          11, 13, 6, 7, 14, 9, 13, 15, 14, 8, 13, 6, 5, 12, 7, 5,
          11, 12, 14, 15, 14, 15, 9, 8, 9, 14, 5, 6, 8, 6, 5, 12,
          9, 15, 5, 11, 6, 8, 13, 12, 5, 12, 13, 14, 11, 8, 5, 6]
    sr = [8, 9, 9, 11, 13, 15, 15, 5, 7, 7, 8, 11, 14, 14, 12, 6,
          9, 13, 15, 7, 12, 8, 9, 11, 7, 7, 12, 7, 6, 15, 13, 11,
          9, 7, 15, 11, 8, 6, 6, 14, 12, 13, 5, 14, 13, 13, 7, 5,
          15, 5, 8, 11, 14, 14, 6, 14, 6, 9, 12, 9, 12, 5, 15, 8,
          8, 5, 12, 9, 12, 5, 14, 6, 8, 13, 6, 5, 15, 13, 11, 11]
    # Message-word order of the left and right lines.
    rl = list(range(16)) + [7, 4, 13, 1, 10, 6, 15, 3, 12, 0, 9, 5, 2, 14, 11, 8] + \
        [3, 10, 14, 4, 9, 15, 8, 1, 2, 7, 0, 6, 13, 11, 5, 12] + \
        [1, 9, 11, 10, 0, 8, 12, 4, 13, 3, 7, 15, 14, 5, 6, 2] + \
        [4, 0, 5, 9, 7, 12, 2, 10, 14, 1, 3, 8, 11, 6, 15, 13]
    rr = [5, 14, 7, 0, 9, 2, 11, 4, 13, 6, 15, 8, 1, 10, 3, 12] + \
        [6, 11, 3, 7, 0, 13, 5, 10, 14, 15, 8, 12, 4, 9, 1, 2] + \
        [15, 5, 1, 3, 7, 14, 6, 9, 11, 8, 12, 2, 10, 0, 4, 13] + \
        [8, 6, 4, 1, 3, 11, 15, 0, 5, 12, 2, 13, 9, 7, 10, 14] + \
        [12, 15, 10, 4, 1, 5, 8, 7, 6, 2, 13, 14, 0, 3, 9, 11]
    kl = [0, 0x5A827999, 0x6ED9EBA1, 0x8F1BBCDC, 0xA953FD4E]
    kr = [0x50A28BE6, 0x5C4DD124, 0x6D703EF3, 0x7A6D76E9, 0]
    mask = 0xFFFFFFFF

    def f(j, x, y, z):
        if j < 16:
            return x ^ y ^ z
        if j < 32:
            return (x & y) | (~x & z)
        if j < 48:
            return (x | ~y) ^ z
        if j < 64:
            return (x & z) | (y & ~z)
        return x ^ (y | ~z)

    def rol(x, n):
        return ((x << n) | (x >> (32 - n))) & mask

    h = [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0]
    msg = data + b"\x80" + b"\x00" * ((55 - len(data)) % 64) + struct.pack("<Q", 8 * len(data))
    for off in range(0, len(msg), 64):
        x = struct.unpack("<16I", msg[off:off + 64])
        al, bl, cl, dl, el = h
        ar, br, cr, dr, er = h
        for j in range(80):
            t = rol((al + f(j, bl, cl, dl) + x[rl[j]] + kl[j // 16]) & mask, sl[j]) + el
            al, el, dl, cl, bl = el, dl, rol(cl, 10), bl, t & mask
            t = rol((ar + f(79 - j, br, cr, dr) + x[rr[j]] + kr[j // 16]) & mask, sr[j]) + er
            ar, er, dr, cr, br = er, dr, rol(cr, 10), br, t & mask
        h = [(h[1] + cl + dr) & mask, (h[2] + dl + er) & mask, (h[3] + el + ar) & mask,
             (h[4] + al + br) & mask, (h[0] + bl + cr) & mask]
    return struct.pack("<5I", *h)


def ripemd160(data: bytes) -> bytes:
    try:
        return hashlib.new("ripemd160", data).digest()
    except ValueError:
        return _ripemd160_py(data)


def hash160(data: bytes) -> bytes:
    return ripemd160(sha256(data))


# ---------------------------------------------------------------------------
# base58check
# ---------------------------------------------------------------------------

B58_PAIRS = [a + b for a in B58 for b in B58]  # two digits per division


def b58check(version: int, payload: bytes) -> str:
    raw = bytes([version]) + payload
    raw += hash256(raw)[:4]
    num = int.from_bytes(raw, "big")
    out = []
    while num:
        num, rem = divmod(num, 58 * 58)
        out.append(B58_PAIRS[rem])
    zeros = len(raw) - len(raw.lstrip(b"\x00"))
    return "1" * zeros + "".join(reversed(out)).lstrip("1")


# ---------------------------------------------------------------------------
# secp256k1
# ---------------------------------------------------------------------------

def _jdouble(x, y, z):
    if not y:
        return 0, 1, 0
    ysq = y * y % P
    s = 4 * x * ysq % P
    m = 3 * x * x % P
    nx = (m * m - 2 * s) % P
    return nx, (m * (s - nx) - 8 * ysq * ysq) % P, 2 * y * z % P


def _jadd_affine(x1, y1, z1, x2, y2):
    """Jacobian (x1, y1, z1) plus affine (x2, y2)."""
    if not z1:
        return x2, y2, 1
    z1s = z1 * z1 % P
    u2 = x2 * z1s % P
    s2 = y2 * z1s * z1 % P
    if u2 == x1:
        return _jdouble(x1, y1, z1) if s2 == y1 else (0, 1, 0)
    h = (u2 - x1) % P
    r = (s2 - y1) % P
    hh = h * h % P
    hhh = h * hh % P
    v = x1 * hh % P
    nx = (r * r - hhh - 2 * v) % P
    return nx, (r * (v - nx) - y1 * hhh) % P, z1 * h % P


def _to_affine(x, y, z):
    zi = pow(z, -1, P)
    zi2 = zi * zi % P
    return x * zi2 % P, y * zi2 * zi % P


def _build_comb():
    """table[i][j] = j * 256**i * G (affine), j = 1..255."""
    table = []
    base = G
    for _ in range(32):
        row = [None, base]
        acc = (base[0], base[1], 1)
        for _ in range(254):
            acc = _jadd_affine(*acc, *base)
            row.append(_to_affine(*acc))
        table.append(row)
        nxt = (base[0], base[1], 1)
        for _ in range(8):
            nxt = _jdouble(*nxt)
        base = _to_affine(*nxt)
    return table


_COMB = None


def g_mul(k: int) -> tuple[int, int]:
    global _COMB
    if _COMB is None:
        _COMB = _build_comb()
    acc = (0, 1, 0)
    for i in range(32):
        j = (k >> (8 * i)) & 0xFF
        if j:
            acc = _jadd_affine(*acc, *_COMB[i][j])
    return _to_affine(*acc)


def compressed_pubkey(d: int) -> bytes:
    x, y = g_mul(d)
    return bytes([2 + (y & 1)]) + x.to_bytes(32, "big")


def _rfc6979(d: int, digest32: bytes):
    """Candidate nonces per RFC 6979 section 3.2 with HMAC-SHA256."""
    x = d.to_bytes(32, "big")
    h1 = (int.from_bytes(digest32, "big") % N).to_bytes(32, "big")
    v, k = b"\x01" * 32, b"\x00" * 32
    for tag in (b"\x00", b"\x01"):
        k = hmac.new(k, v + tag + x + h1, hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()
    while True:
        v = hmac.new(k, v, hashlib.sha256).digest()
        cand = int.from_bytes(v, "big")
        if 0 < cand < N:
            yield cand
        k = hmac.new(k, v + b"\x00", hashlib.sha256).digest()
        v = hmac.new(k, v, hashlib.sha256).digest()


def sign_recoverable(d: int, digest32: bytes) -> bytes:
    """65-byte compact signature: header, r, s; low-s, compressed key."""
    e = int.from_bytes(digest32, "big") % N
    for k in _rfc6979(d, digest32):
        rx, ry = g_mul(k)
        r = rx % N
        if not r:
            continue
        s = pow(k, -1, N) * (e + r * d) % N
        if not s:
            continue
        recid = (ry & 1) | (2 if rx >= N else 0)
        if s > N // 2:
            s, recid = N - s, recid ^ 1
        return bytes([31 + recid]) + r.to_bytes(32, "big") + s.to_bytes(32, "big")
    raise AssertionError("unreachable")


def compact_size(n: int) -> bytes:
    if n < 0xFD:
        return bytes([n])
    if n <= 0xFFFF:
        return b"\xfd" + struct.pack("<H", n)
    return b"\xfe" + struct.pack("<I", n)


def message_hash(message: str) -> bytes:
    body = message.encode("utf-8")
    return hash256(MESSAGE_MAGIC + compact_size(len(body)) + body)


# ---------------------------------------------------------------------------
# Scripts and transactions
# ---------------------------------------------------------------------------

def push(data: bytes) -> bytes:
    n = len(data)
    if n == 0:
        return b"\x00"
    if n <= 75:
        return bytes([n]) + data
    if n <= 0xFF:
        return bytes([0x4C, n]) + data
    return bytes([0x4D]) + struct.pack("<H", n) + data


def multisig_script(m: int, pubkeys: list[bytes]) -> bytes:
    return bytes([0x50 + m]) + b"".join(push(k) for k in pubkeys) + \
        bytes([0x50 + len(pubkeys), 0xAE])


def p2pkh_script(h160: bytes) -> bytes:
    return b"\x76\xa9\x14" + h160 + b"\x88\xac"


def p2sh_script(h160: bytes) -> bytes:
    return b"\xa9\x14" + h160 + b"\x87"


def nulldata_script(payload: bytes) -> bytes:
    return b"\x6a" + push(payload)


def serialize_tx(version: int, inputs: list[tuple[bytes, int, bytes, int]],
                 outputs: list[tuple[int, bytes]], locktime: int) -> bytes:
    """inputs: (prev_hash, vout, script_sig, sequence); outputs: (sat, script)."""
    out = [struct.pack("<i", version), compact_size(len(inputs))]
    for prev, vout, script, seq in inputs:
        out += [prev, struct.pack("<I", vout), compact_size(len(script)), script,
                struct.pack("<I", seq)]
    out.append(compact_size(len(outputs)))
    for value, script in outputs:
        out += [struct.pack("<Q", value), compact_size(len(script)), script]
    out.append(struct.pack("<I", locktime))
    return b"".join(out)


def txid_hex(raw: bytes) -> str:
    return hash256(raw)[::-1].hex()


def btc_text(sat: int) -> str:
    """Fixed eight-decimal amount, as a transaction report prints it."""
    return f"{sat // 10**8}.{sat % 10**8:08d}"


def btc_short(sat: int) -> str:
    """Amount with trailing zeros dropped, as a certificate states it."""
    return f"{sat // 10**8}.{sat % 10**8:08d}".rstrip("0").rstrip(".") or "0"
