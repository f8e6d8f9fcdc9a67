"""Raw transaction model: parse, serialize, classify scripts, render asm.

The hex form of a transaction is the record of interest here, so parsing and
serialization are exact inverses: every byte of a valid input is accounted
for and reproduced, and a record has one byte form, with a witness exactly
when some input has one. A Transaction keeps it as raw; a parsed one keeps
the very bytes it was read from, so reports, txids and anchors read those
bytes instead of rebuilding them. Txids are computed over the
witness-stripped serialization: for a legacy transaction that is raw itself.

Reading is one pass on offsets into the bytes: each field's bounds are
checked before struct unpacks or slices it, and the records are built with
tuple.__new__ once their checks have run. A script op is the pair (opcode,
data), data None when the opcode pushes nothing; the pair of each opcode
that pushes nothing, and OP_0's empty push, are shared from a table built at
import, and asm takes the token of each such opcode from another. The slow
path this replaced (a BytesIO reader, a fresh op per element, asm by
branching on each op) is kept in tests/reftx.py, the reference that property
tests hold this one to.
"""

from __future__ import annotations

import struct
from collections import namedtuple

from .crypto import Address, Network, hash160, hash256, write_compact_size
from .errors import EawardError, parse_hex

MAX_MONEY = 21_000_000 * 100_000_000  # satoshi
MAX_PUBKEYS_PER_MULTISIG = 20

# Script opcodes used by this artifact's standard-script surface.
OP_0 = 0x00
OP_PUSHDATA1 = 0x4C
OP_PUSHDATA2 = 0x4D
OP_PUSHDATA4 = 0x4E
OP_1NEGATE = 0x4F
OP_1 = 0x51
OP_16 = 0x60
OP_RETURN = 0x6A
OP_DUP = 0x76
OP_EQUAL = 0x87
OP_EQUALVERIFY = 0x88
OP_HASH160 = 0xA9
OP_CHECKSIG = 0xAC
OP_CHECKMULTISIG = 0xAE

# The asm token of each opcode that pushes nothing, by opcode, as Bitcoin
# Core's GetOpName gives it: 0x4f..0xba in order, then the undefined bytes
# 0xbb..0xfe and 0xff. Push opcodes render their data and have no token.
_ASM_TOKENS = (None,) * OP_1NEGATE + tuple("""
    -1 OP_RESERVED 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16
    OP_NOP OP_VER OP_IF OP_NOTIF OP_VERIF OP_VERNOTIF OP_ELSE OP_ENDIF OP_VERIFY OP_RETURN
    OP_TOALTSTACK OP_FROMALTSTACK OP_2DROP OP_2DUP OP_3DUP OP_2OVER OP_2ROT OP_2SWAP OP_IFDUP
    OP_DEPTH OP_DROP OP_DUP OP_NIP OP_OVER OP_PICK OP_ROLL OP_ROT OP_SWAP OP_TUCK
    OP_CAT OP_SUBSTR OP_LEFT OP_RIGHT OP_SIZE OP_INVERT OP_AND OP_OR OP_XOR
    OP_EQUAL OP_EQUALVERIFY OP_RESERVED1 OP_RESERVED2
    OP_1ADD OP_1SUB OP_2MUL OP_2DIV OP_NEGATE OP_ABS OP_NOT OP_0NOTEQUAL
    OP_ADD OP_SUB OP_MUL OP_DIV OP_MOD OP_LSHIFT OP_RSHIFT OP_BOOLAND OP_BOOLOR
    OP_NUMEQUAL OP_NUMEQUALVERIFY OP_NUMNOTEQUAL OP_LESSTHAN OP_GREATERTHAN
    OP_LESSTHANOREQUAL OP_GREATERTHANOREQUAL OP_MIN OP_MAX OP_WITHIN
    OP_RIPEMD160 OP_SHA1 OP_SHA256 OP_HASH160 OP_HASH256 OP_CODESEPARATOR
    OP_CHECKSIG OP_CHECKSIGVERIFY OP_CHECKMULTISIG OP_CHECKMULTISIGVERIFY
    OP_NOP1 OP_CHECKLOCKTIMEVERIFY OP_CHECKSEQUENCEVERIFY
    OP_NOP4 OP_NOP5 OP_NOP6 OP_NOP7 OP_NOP8 OP_NOP9 OP_NOP10 OP_CHECKSIGADD
""".split()) + ("OP_UNKNOWN",) * (0xFF - 0xBB) + ("OP_INVALIDOPCODE",)


class TxError(EawardError):
    pass


# ---------------------------------------------------------------------------
# Wire plumbing
# ---------------------------------------------------------------------------

_U16 = struct.Struct("<H").unpack_from
_U32 = struct.Struct("<I").unpack_from
_I32 = struct.Struct("<i").unpack_from
_U64 = struct.Struct("<Q").unpack_from
# first byte of a wide compact size -> (reader, width, smallest value it may carry)
_WIDE_SIZES = {0xFD: (_U16, 2, 0xFD), 0xFE: (_U32, 4, 0x10000), 0xFF: (_U64, 8, 0x100000000)}


def _overrun(raw: bytes, at: int, *widths: int) -> TxError:
    """The error of reading fields of these widths in turn from offset at,
    when together they run past the end: the first that does not fit."""
    for n in widths:
        if at + n > len(raw):
            break
        at += n
    return TxError(f"needed {n} bytes, got {len(raw) - at}")


def _compact_size(raw: bytes, at: int) -> tuple[int, int]:
    """The compact size at offset at and the offset after it. Canonical
    minimal encodings only, so parse is an exact inverse of serialize and
    txids are well-defined over parsed values."""
    if at >= len(raw):
        raise _overrun(raw, at, 1)
    first = raw[at]
    if first < 0xFD:
        return first, at + 1
    unpack, width, floor = _WIDE_SIZES[first]
    at += 1
    if at + width > len(raw):
        raise _overrun(raw, at, width)
    value = unpack(raw, at)[0]
    if value < floor:
        raise TxError(f"non-canonical compact size encoding of {value}")
    return value, at + width


# ---------------------------------------------------------------------------
# Txid
# ---------------------------------------------------------------------------

class Txid(namedtuple("Txid", "hash")):
    """hash256 of the stripped serialization; displayed byte-reversed."""

    __slots__ = ()

    def __new__(cls, hash: bytes):
        if len(hash) != 32:
            raise TxError("txid must wrap 32 bytes")
        return super().__new__(cls, hash)

    @classmethod
    def from_hex(cls, text: str) -> "Txid":
        raw = parse_hex(text)
        if len(raw) != 32:
            raise TxError("txid hex must be 64 characters")
        return cls(raw[::-1])

    def hex(self) -> str:
        return self.hash[::-1].hex()

    def __str__(self) -> str:
        return self.hex()


# ---------------------------------------------------------------------------
# Scripts
# ---------------------------------------------------------------------------

def push_data(data: bytes) -> bytes:
    """Minimal push encoding for data (empty data becomes OP_0)."""
    n = len(data)
    if n == 0:
        return bytes([OP_0])
    if n <= 75:
        return bytes([n]) + data
    if n <= 0xFF:
        return bytes([OP_PUSHDATA1, n]) + data
    if n <= 0xFFFF:
        return bytes([OP_PUSHDATA2]) + struct.pack("<H", n) + data
    return bytes([OP_PUSHDATA4]) + struct.pack("<I", n) + data


# The one op of each opcode that pushes nothing, and of OP_0's empty push,
# which every script shares; None for the opcodes that push bytes.
_SHARED_OPS = tuple(
    (op, b"") if op == OP_0 else None if op <= OP_PUSHDATA4 else (op, None)
    for op in range(256))


class Script(namedtuple("Script", "raw parsed fault")):
    """The bytes raw, and what _parse makes of them when the script is made:
    parsed and fault follow from raw, so equal raw means equal scripts.
    Both are made again from raw whatever is passed for them."""

    __slots__ = ()

    def __new__(cls, raw: bytes, parsed=None, fault=None):
        parsed, fault = cls._parse(raw)
        return tuple.__new__(cls, (raw, tuple(parsed), fault))

    @classmethod
    def from_hex(cls, text: str) -> "Script":
        return cls(parse_hex(text))

    def hex(self) -> str:
        return self.raw.hex()

    def ops(self) -> tuple[tuple[int, bytes | None], ...]:
        """The (opcode, data) pairs; raises TxError on overruns."""
        if self.fault:
            raise TxError(self.fault)
        return self.parsed

    @staticmethod
    def _parse(raw: bytes) -> tuple[list[tuple[int, bytes | None]], str | None]:
        """The ops before the first overrun, and the overrun's message or
        None when the whole script parses."""
        out = []
        i = 0
        end = len(raw)
        while i < end:
            op = raw[i]
            i += 1
            shared = _SHARED_OPS[op]
            if shared is not None:
                out.append(shared)
                continue
            if op <= 75:
                n = op
                if i + n > end:
                    return out, "push runs past end of script"
            else:
                width = 1 << (op - OP_PUSHDATA1)  # 1, 2 or 4
                if i + width > end:
                    return out, "pushdata length field truncated"
                n = int.from_bytes(raw[i:i + width], "little")
                i += width
                if i + n > end:
                    return out, "pushdata runs past end of script"
            out.append((op, raw[i:i + n]))
            i += n
        return out, None

    def pushes(self) -> tuple[bytes, ...]:
        return tuple(data for _, data in self.ops() if data is not None)


def _script_num(data: bytes) -> int:
    """Bitcoin Core's CScriptNum(data, false) of at most 4 bytes: little-endian,
    with the sign in the top bit of the last byte."""
    value = int.from_bytes(data, "little")
    if data and data[-1] & 0x80:
        return -(value ^ 0x80 << 8 * (len(data) - 1))
    return value


def script_to_asm(script: Script) -> str:
    """Space-separated console rendering as Bitcoin Core's ScriptToAsmStr
    gives it: pushes of up to 4 bytes as the decimal number they encode,
    longer pushes as hex, small ints as decimal, everything else as OP_*
    names. A script that stops parsing renders the ops before the fault and
    then "[error]": an output script or coinbase scriptSig may be any bytes."""
    tokens = [_ASM_TOKENS[opcode] if data is None
              else data.hex() if len(data) > 4 else str(_script_num(data))
              for opcode, data in script.parsed]
    if script.fault:
        tokens.append("[error]")
    return " ".join(tokens)


# ---------------------------------------------------------------------------
# Script classification
# ---------------------------------------------------------------------------

class DecodedScript(namedtuple("DecodedScript", "kind script req_sigs addresses payload",
                               defaults=(None, None, None))):
    """kind is p2pkh, p2sh, multisig, nulldata or nonstandard."""

    __slots__ = ()

    def to_report(self) -> dict:
        doc = {"asm": script_to_asm(self.script), "hex": self.script.raw.hex(),
               "type": self.kind}
        if self.req_sigs is not None:
            doc["reqSigs"] = self.req_sigs
        if self.addresses is not None:
            doc["addresses"] = [a.text for a in self.addresses]
        return doc


def _looks_like_pubkey(data: bytes) -> bool:
    """Bitcoin Core's CPubKey::ValidSize: 33 bytes after prefix 2 or 3, 65
    after 4, or after 6 or 7 (a hybrid key)."""
    if len(data) == 33:
        return data[0] in (2, 3)
    if len(data) == 65:
        return data[0] in (4, 6, 7)
    return False


def _multisig_count(opcode: int, data: bytes | None) -> int | None:
    """The count 1..MAX_PUBKEYS_PER_MULTISIG that the op encodes as Bitcoin
    Core's GetScriptNumber reads it, or None. Core takes OP_1..OP_16 or a
    minimal push of a minimal number; in this range the only such pushes
    are 17..20, each pushed as one byte by opcode 0x01."""
    if OP_1 <= opcode <= OP_16:
        return opcode - 0x50
    if opcode == 1 and 17 <= data[0] <= MAX_PUBKEYS_PER_MULTISIG:
        return data[0]
    return None


def nulldata_payload(script: Script) -> bytes | None:
    """Concatenated push payload when the script is an OP_RETURN carrier."""
    ops = script.parsed
    if (script.fault is None and ops and ops[0][0] == OP_RETURN
            and all(opcode <= OP_16 for opcode, _ in ops[1:])):
        return b"".join(data for _, data in ops[1:] if data is not None)
    return None


def decode_script(script: Script | str, network: Network) -> DecodedScript:
    """Classify a script and derive its addresses for the given network;
    TxError when it does not parse."""
    if isinstance(script, str):
        script = Script.from_hex(script)
    ops = script.ops()

    # Only the exact templates, whose hash is pushed by the direct 20-byte
    # push 0x14, as in Bitcoin Core's Solver: BIP 16 evaluates no other form
    # of P2SH, so naming the escrow's address for one would be evidence the
    # bytes do not support. An op is (opcode, data).
    if (len(ops) == 5 and ops[0][0] == OP_DUP and ops[1][0] == OP_HASH160
            and ops[2][0] == 0x14 and ops[3][0] == OP_EQUALVERIFY and ops[4][0] == OP_CHECKSIG):
        addr = Address.from_parts(network.p2pkh_version, ops[2][1])
        return tuple.__new__(DecodedScript, ("p2pkh", script, 1, (addr,), None))

    if len(ops) == 3 and ops[0][0] == OP_HASH160 and ops[1][0] == 0x14 and ops[2][0] == OP_EQUAL:
        addr = Address.from_parts(network.p2sh_version, ops[1][1])
        return tuple.__new__(DecodedScript, ("p2sh", script, 1, (addr,), None))

    # Bitcoin Core's MatchMultisig: m <key>... n OP_CHECKMULTISIG, with
    # 1 <= m <= n <= 20 and n keys.
    if len(ops) >= 4 and ops[-1][0] == OP_CHECKMULTISIG:
        m = _multisig_count(*ops[0])
        n = _multisig_count(*ops[-2])
        keys = [data for _, data in ops[1:-2]]
        if (m and n and m <= n == len(keys)
                and all(k is not None and _looks_like_pubkey(k) for k in keys)):
            addresses = tuple(
                Address.from_parts(network.p2pkh_version, hash160(k)) for k in keys
            )
            return tuple.__new__(DecodedScript, ("multisig", script, m, addresses, None))

    payload = nulldata_payload(script)
    if payload is not None:
        return tuple.__new__(DecodedScript, ("nulldata", script, None, None, payload))

    return tuple.__new__(DecodedScript, ("nonstandard", script, None, None, None))


def build_nulldata_script(payload: bytes) -> Script:
    """OP_RETURN carrier for payload; the 80-byte bound keeps the whole
    output script within the 83-byte relay limit."""
    if len(payload) > 80:
        raise TxError(f"nulldata payload is {len(payload)} bytes, limit 80")
    return Script(bytes([OP_RETURN]) + push_data(payload))


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------

def _check_range(name: str, value: int, low: int, high: int):
    """TxError naming the field unless low <= value <= high."""
    if not low <= value <= high:
        raise TxError(f"{name} {value} outside {low}..{high}")


class TxInput(namedtuple("TxInput", "prev_txid prev_vout script_sig sequence witness")):
    __slots__ = ()

    def __new__(cls, prev_txid: Txid, prev_vout: int, script_sig: Script,
                sequence: int = 0xFFFFFFFF, witness: tuple[bytes, ...] = ()):
        _check_range("prev_vout", prev_vout, 0, 0xFFFFFFFF)
        _check_range("sequence", sequence, 0, 0xFFFFFFFF)
        return super().__new__(cls, prev_txid, prev_vout, script_sig, sequence, witness)


class TxOutput(namedtuple("TxOutput", "value script_pubkey")):
    __slots__ = ()

    def __new__(cls, value: int, script_pubkey: Script):  # value in satoshi
        _check_range("output value", value, 0, MAX_MONEY)
        return super().__new__(cls, value, script_pubkey)


def _serialize(version: int, inputs: tuple[TxInput, ...], outputs: tuple[TxOutput, ...],
               locktime: int, include_witness: bool) -> bytes:
    out = bytearray(struct.pack("<i", version))
    if include_witness:
        out += b"\x00\x01"
    out += write_compact_size(len(inputs))
    for txin in inputs:
        out += txin.prev_txid.hash
        out += struct.pack("<I", txin.prev_vout)
        out += write_compact_size(len(txin.script_sig.raw))
        out += txin.script_sig.raw
        out += struct.pack("<I", txin.sequence)
    out += write_compact_size(len(outputs))
    for txout in outputs:
        out += struct.pack("<Q", txout.value)
        out += write_compact_size(len(txout.script_pubkey.raw))
        out += txout.script_pubkey.raw
    if include_witness:
        for txin in inputs:
            out += write_compact_size(len(txin.witness))
            for item in txin.witness:
                out += write_compact_size(len(item))
                out += item
    out += struct.pack("<I", locktime)
    return bytes(out)


class Transaction(namedtuple("Transaction", "version inputs outputs locktime raw")):
    """raw is the serialization, with the witness exactly when some input
    has one (Bitcoin Core's HasWitness). It follows from the other fields and
    is made again from them whatever is passed for it; parse_transaction keeps
    the bytes it read instead, the same bytes, as it inverts serializing."""

    __slots__ = ()

    def __new__(cls, version: int, inputs: tuple[TxInput, ...], outputs: tuple[TxOutput, ...],
                locktime: int = 0, raw=None):
        if not inputs or not outputs:
            raise TxError("transaction needs at least one input and one output")
        _check_range("version", version, -0x80000000, 0x7FFFFFFF)
        _check_range("locktime", locktime, 0, 0xFFFFFFFF)
        raw = _serialize(version, inputs, outputs, locktime,
                         any(txin.witness for txin in inputs))
        return super().__new__(cls, version, inputs, outputs, locktime, raw)

    def serialize(self) -> bytes:
        return self.raw

    def to_hex(self) -> str:
        return self.raw.hex()


def parse_transaction(hex_text: str) -> Transaction:
    """Parse a raw transaction from hex, witness-flagged or legacy."""
    raw = parse_hex(hex_text)
    end = len(raw)
    if end < 4:
        raise _overrun(raw, 0, 4)
    version = _I32(raw, 0)[0]

    n_inputs, at = _compact_size(raw, 4)
    flagged = n_inputs == 0
    if flagged:
        # Marker byte: a legacy transaction cannot have zero inputs.
        if at >= end:
            raise _overrun(raw, at, 1)
        if raw[at] != 1:
            raise TxError("zero-input transaction with unknown flag byte")
        n_inputs, at = _compact_size(raw, at + 1)

    # Each field is bounds-checked before it is read, and every integer read
    # fits its field's range, so the one check the records' classes make that
    # reading does not, TxOutput's value bound, is made inline, and the
    # records are built without their classes.
    inputs = []
    for _ in range(n_inputs):
        if at + 36 > end:
            raise _overrun(raw, at, 32, 4)
        prev_txid = tuple.__new__(Txid, (raw[at:at + 32],))
        prev_vout = _U32(raw, at + 32)[0]
        script_len, at = _compact_size(raw, at + 36)
        if at + script_len + 4 > end:
            raise _overrun(raw, at, script_len, 4)
        script_sig = Script(raw[at:at + script_len])
        at += script_len
        inputs.append(tuple.__new__(
            TxInput, (prev_txid, prev_vout, script_sig, _U32(raw, at)[0], ())))
        at += 4

    n_outputs, at = _compact_size(raw, at)
    outputs = []
    for _ in range(n_outputs):
        if at + 8 > end:
            raise _overrun(raw, at, 8)
        value = _U64(raw, at)[0]
        script_len, at = _compact_size(raw, at + 8)
        if at + script_len > end:
            raise _overrun(raw, at, script_len)
        script_pubkey = Script(raw[at:at + script_len])
        at += script_len
        if value > MAX_MONEY:  # TxOutput's bound
            raise TxError(f"output value {value} outside 0..{MAX_MONEY}")
        outputs.append(tuple.__new__(TxOutput, (value, script_pubkey)))

    if flagged:
        for i in range(n_inputs):
            n_items, at = _compact_size(raw, at)
            items = []
            for _ in range(n_items):
                item_len, at = _compact_size(raw, at)
                if at + item_len > end:
                    raise _overrun(raw, at, item_len)
                items.append(raw[at:at + item_len])
                at += item_len
            inputs[i] = tuple.__new__(TxInput, (*inputs[i][:4], tuple(items)))
        if not any(txin.witness for txin in inputs):  # a second form of one record
            raise TxError("superfluous witness record")

    if at + 4 > end:
        raise _overrun(raw, at, 4)
    locktime = _U32(raw, at)[0]
    if at + 4 != end:
        raise TxError("extra bytes after transaction")
    if not inputs or not outputs:
        raise TxError("transaction needs at least one input and one output")
    # Every byte was read back as it serializes, so raw is the record's
    # serialization and need not be made again.
    return tuple.__new__(Transaction, (version, tuple(inputs), tuple(outputs), locktime, raw))


def compute_txid(tx: Transaction) -> Txid:
    witnessed = any(txin.witness for txin in tx.inputs)
    return Txid(hash256(_serialize(*tx[:4], False) if witnessed else tx.raw))


def extract_op_return(tx: Transaction) -> list[bytes]:
    """Payloads of every nulldata output, in output order."""
    payloads = (nulldata_payload(txout.script_pubkey) for txout in tx.outputs)
    return [p for p in payloads if p is not None]


def format_btc(sats: int) -> str:
    """A satoshi amount in BTC with all eight decimals, e.g. "0.00500000"."""
    return f"{sats // 10**8}.{sats % 10**8:08d}"


def transaction_report(tx: Transaction, network: Network) -> dict:
    """Structured decode mirroring the console extraction paths
    (vin[].scriptSig.asm, vout[].scriptPubKey.{asm,type,reqSigs,addresses})."""
    doc = {
        "txid": compute_txid(tx).hex(),
        "version": tx.version,
        "size": len(tx.raw),
        "locktime": tx.locktime,
        "vin": [],
        "vout": [],
    }
    for txin in tx.inputs:
        entry = {
            "txid": txin.prev_txid.hex(),
            "vout": txin.prev_vout,
            "scriptSig": {
                "asm": script_to_asm(txin.script_sig),
                "hex": txin.script_sig.raw.hex(),
            },
            "sequence": txin.sequence,
        }
        if txin.witness:
            entry["txinwitness"] = [item.hex() for item in txin.witness]
        doc["vin"].append(entry)
    for n, txout in enumerate(tx.outputs):
        script = txout.script_pubkey
        decoded = (tuple.__new__(DecodedScript, ("nonstandard", script, None, None, None))
                   if script.fault else decode_script(script, network))
        doc["vout"].append({
            "value": format_btc(txout.value),
            "n": n,
            "scriptPubKey": decoded.to_report(),
        })
    return doc
