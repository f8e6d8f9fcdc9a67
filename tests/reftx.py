"""The slow path of the record reader, kept as the reference its faster form
is checked against: hex through the regex before bytes.fromhex, a
transaction read through a BytesIO reader, a script parsed into a fresh
(opcode, data) pair per element, and asm chosen by branching on each op
over a dict of opcode names.

Each function answers as eaward's own does, with the same records and the
same messages; tests compare the two on generated and damaged inputs.
"""

from __future__ import annotations

import re
import struct
from io import BytesIO

from eaward.errors import MalformedHex
from eaward.tx import (
    OP_0,
    OP_1,
    OP_1NEGATE,
    OP_16,
    OP_PUSHDATA1,
    OP_PUSHDATA2,
    OP_PUSHDATA4,
    Script,
    Transaction,
    TxError,
    TxInput,
    TxOutput,
    Txid,
    _script_num,
)

_HEX_RE = re.compile(r"[0-9a-fA-F]*")

_OPCODE_NAMES = {
    0x50: "OP_RESERVED", 0x61: "OP_NOP", 0x62: "OP_VER", 0x63: "OP_IF",
    0x64: "OP_NOTIF", 0x65: "OP_VERIF", 0x66: "OP_VERNOTIF", 0x67: "OP_ELSE",
    0x68: "OP_ENDIF", 0x69: "OP_VERIFY", 0x6A: "OP_RETURN",
    0x6B: "OP_TOALTSTACK", 0x6C: "OP_FROMALTSTACK", 0x6D: "OP_2DROP",
    0x6E: "OP_2DUP", 0x6F: "OP_3DUP", 0x70: "OP_2OVER", 0x71: "OP_2ROT",
    0x72: "OP_2SWAP", 0x73: "OP_IFDUP", 0x74: "OP_DEPTH", 0x75: "OP_DROP",
    0x76: "OP_DUP", 0x77: "OP_NIP", 0x78: "OP_OVER", 0x79: "OP_PICK",
    0x7A: "OP_ROLL", 0x7B: "OP_ROT", 0x7C: "OP_SWAP", 0x7D: "OP_TUCK",
    0x7E: "OP_CAT", 0x7F: "OP_SUBSTR", 0x80: "OP_LEFT", 0x81: "OP_RIGHT",
    0x82: "OP_SIZE", 0x83: "OP_INVERT", 0x84: "OP_AND", 0x85: "OP_OR",
    0x86: "OP_XOR", 0x87: "OP_EQUAL", 0x88: "OP_EQUALVERIFY",
    0x89: "OP_RESERVED1", 0x8A: "OP_RESERVED2", 0x8B: "OP_1ADD",
    0x8C: "OP_1SUB", 0x8D: "OP_2MUL", 0x8E: "OP_2DIV",
    0x8F: "OP_NEGATE", 0x90: "OP_ABS", 0x91: "OP_NOT", 0x92: "OP_0NOTEQUAL",
    0x93: "OP_ADD", 0x94: "OP_SUB", 0x95: "OP_MUL", 0x96: "OP_DIV",
    0x97: "OP_MOD", 0x98: "OP_LSHIFT", 0x99: "OP_RSHIFT",
    0x9A: "OP_BOOLAND", 0x9B: "OP_BOOLOR", 0x9C: "OP_NUMEQUAL",
    0x9D: "OP_NUMEQUALVERIFY", 0x9E: "OP_NUMNOTEQUAL", 0x9F: "OP_LESSTHAN",
    0xA0: "OP_GREATERTHAN", 0xA1: "OP_LESSTHANOREQUAL",
    0xA2: "OP_GREATERTHANOREQUAL", 0xA3: "OP_MIN", 0xA4: "OP_MAX",
    0xA5: "OP_WITHIN", 0xA6: "OP_RIPEMD160", 0xA7: "OP_SHA1",
    0xA8: "OP_SHA256", 0xA9: "OP_HASH160", 0xAA: "OP_HASH256",
    0xAB: "OP_CODESEPARATOR", 0xAC: "OP_CHECKSIG", 0xAD: "OP_CHECKSIGVERIFY",
    0xAE: "OP_CHECKMULTISIG", 0xAF: "OP_CHECKMULTISIGVERIFY",
    0xB0: "OP_NOP1", 0xB1: "OP_CHECKLOCKTIMEVERIFY",
    0xB2: "OP_CHECKSEQUENCEVERIFY", 0xB3: "OP_NOP4", 0xB4: "OP_NOP5",
    0xB5: "OP_NOP6", 0xB6: "OP_NOP7", 0xB7: "OP_NOP8", 0xB8: "OP_NOP9",
    0xB9: "OP_NOP10", 0xBA: "OP_CHECKSIGADD", 0xFF: "OP_INVALIDOPCODE",
}


def parse_hex(text: str) -> bytes:
    text = text.strip()
    if not _HEX_RE.fullmatch(text):
        raise MalformedHex("non-hex characters in input")
    if len(text) % 2:
        raise MalformedHex("odd-length hex input")
    return bytes.fromhex(text)


class _Reader:
    def __init__(self, data: bytes):
        self._io = BytesIO(data)
        self._len = len(data)

    def read(self, n: int) -> bytes:
        # BytesIO.read refuses a count past sys.maxsize; no read returns
        # more than the data holds.
        out = self._io.read(min(n, self._len))
        if len(out) != n:
            raise TxError(f"needed {n} bytes, got {len(out)}")
        return out

    def read_compact_size(self) -> int:
        first = self.read(1)[0]
        if first < 0xFD:
            return first
        if first == 0xFD:
            value = struct.unpack("<H", self.read(2))[0]
            floor = 0xFD
        elif first == 0xFE:
            value = struct.unpack("<I", self.read(4))[0]
            floor = 0x10000
        else:
            value = struct.unpack("<Q", self.read(8))[0]
            floor = 0x100000000
        if value < floor:
            raise TxError(f"non-canonical compact size encoding of {value}")
        return value

    @property
    def exhausted(self) -> bool:
        return self._io.tell() == self._len


def parse_transaction(hex_text: str) -> Transaction:
    raw = parse_hex(hex_text)
    reader = _Reader(raw)
    version = struct.unpack("<i", reader.read(4))[0]

    n_inputs = reader.read_compact_size()
    flagged = n_inputs == 0
    if flagged:
        if reader.read(1) != b"\x01":
            raise TxError("zero-input transaction with unknown flag byte")
        n_inputs = reader.read_compact_size()

    inputs = []
    for _ in range(n_inputs):
        prev_hash = reader.read(32)
        prev_vout = struct.unpack("<I", reader.read(4))[0]
        script_len = reader.read_compact_size()
        script_sig = Script(reader.read(script_len))
        sequence = struct.unpack("<I", reader.read(4))[0]
        inputs.append(TxInput(Txid(prev_hash), prev_vout, script_sig, sequence))

    n_outputs = reader.read_compact_size()
    outputs = []
    for _ in range(n_outputs):
        value = struct.unpack("<Q", reader.read(8))[0]
        script_len = reader.read_compact_size()
        outputs.append(TxOutput(value, Script(reader.read(script_len))))

    if flagged:
        for i in range(n_inputs):
            n_items = reader.read_compact_size()
            items = tuple(reader.read(reader.read_compact_size()) for _ in range(n_items))
            inputs[i] = TxInput(inputs[i].prev_txid, inputs[i].prev_vout,
                                inputs[i].script_sig, inputs[i].sequence, items)
        if not any(txin.witness for txin in inputs):
            raise TxError("superfluous witness record")

    locktime = struct.unpack("<I", reader.read(4))[0]
    if not reader.exhausted:
        raise TxError("extra bytes after transaction")
    if not inputs or not outputs:
        raise TxError("transaction needs at least one input and one output")
    return tuple.__new__(Transaction, (version, tuple(inputs), tuple(outputs), locktime, raw))


def parse_script(raw: bytes) -> tuple[list[tuple[int, bytes | None]], str | None]:
    """What Script._parse gives: the ops before the first overrun, and the
    overrun's message or None."""
    out = []
    i = 0
    while i < len(raw):
        op = raw[i]
        i += 1
        if op == OP_0:
            out.append((op, b""))
        elif op <= 75:
            data = raw[i:i + op]
            if len(data) != op:
                return out, "push runs past end of script"
            out.append((op, data))
            i += op
        elif op in (OP_PUSHDATA1, OP_PUSHDATA2, OP_PUSHDATA4):
            width = {OP_PUSHDATA1: 1, OP_PUSHDATA2: 2, OP_PUSHDATA4: 4}[op]
            if i + width > len(raw):
                return out, "pushdata length field truncated"
            n = int.from_bytes(raw[i:i + width], "little")
            i += width
            data = raw[i:i + n]
            if len(data) != n:
                return out, "pushdata runs past end of script"
            out.append((op, data))
            i += n
        else:
            out.append((op, None))
    return out, None


def script_to_asm(raw: bytes) -> str:
    """What script_to_asm gives for Script(raw)."""
    ops, fault = parse_script(raw)
    tokens = []
    for opcode, data in ops:
        if data is not None:
            tokens.append(str(_script_num(data)) if len(data) <= 4 else data.hex())
        elif opcode == OP_1NEGATE:
            tokens.append("-1")
        elif OP_1 <= opcode <= OP_16:
            tokens.append(str(opcode - 0x50))
        else:
            tokens.append(_OPCODE_NAMES.get(opcode, "OP_UNKNOWN"))
    if fault:
        tokens.append("[error]")
    return " ".join(tokens)
