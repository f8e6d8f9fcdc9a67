"""Raw transaction model: parse, serialize, classify scripts, render asm.

The hex form of a transaction is the record of interest here, so parsing and
serialization are exact inverses: every byte of a valid input is accounted
for and reproduced, and a record has one byte form, with a witness exactly
when some input has one. A Transaction keeps it as raw; a parsed one keeps
the very bytes it was read from, so reports, txids and anchors read those
bytes instead of rebuilding them. Txids are computed over the
witness-stripped serialization: for a legacy transaction that is raw itself.
"""

from __future__ import annotations

import struct
from collections import namedtuple
from io import BytesIO

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


class TxError(EawardError):
    pass


# ---------------------------------------------------------------------------
# Wire plumbing
# ---------------------------------------------------------------------------

class _Reader:
    def __init__(self, data: bytes):
        self._io = BytesIO(data)
        self._len = len(data)

    def read(self, n: int) -> bytes:
        out = self._io.read(n)
        if len(out) != n:
            raise TxError(f"needed {n} bytes, got {len(out)}")
        return out

    def read_compact_size(self) -> int:
        # Canonical minimal encodings only, so parse is an exact inverse of
        # serialize and txids are well-defined over parsed values.
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


class ScriptOp(namedtuple("ScriptOp", "opcode data", defaults=(None,))):
    """One parsed script element: opcode plus pushed data when it is a push."""

    __slots__ = ()

    @property
    def is_push(self) -> bool:
        return self.data is not None


class Script(namedtuple("Script", "raw parsed fault")):
    """The bytes raw, and what _parse makes of them when the script is made:
    parsed and fault follow from raw, so equal raw means equal scripts.
    Both are made again from raw whatever is passed for them."""

    __slots__ = ()

    def __new__(cls, raw: bytes, parsed=None, fault=None):
        parsed, fault = cls._parse(raw)
        return super().__new__(cls, raw, tuple(parsed), fault)

    @classmethod
    def from_hex(cls, text: str) -> "Script":
        return cls(parse_hex(text))

    def hex(self) -> str:
        return self.raw.hex()

    def ops(self) -> tuple[ScriptOp, ...]:
        """Parsed opcode/push sequence; raises TxError on overruns."""
        if self.fault:
            raise TxError(self.fault)
        return self.parsed

    @staticmethod
    def _parse(raw: bytes) -> tuple[list[ScriptOp], str | None]:
        """The ops before the first overrun, and the overrun's message or
        None when the whole script parses."""
        out = []
        i = 0
        while i < len(raw):
            op = raw[i]
            i += 1
            if op == OP_0:
                out.append(ScriptOp(op, b""))
            elif op <= 75:
                data = raw[i:i + op]
                if len(data) != op:
                    return out, "push runs past end of script"
                out.append(ScriptOp(op, data))
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
                out.append(ScriptOp(op, data))
                i += n
            else:
                out.append(ScriptOp(op))
        return out, None

    def pushes(self) -> tuple[bytes, ...]:
        return tuple(op.data for op in self.ops() if op.is_push)


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
    tokens = []
    for op in script.parsed:
        if op.is_push:
            tokens.append(str(_script_num(op.data)) if len(op.data) <= 4 else op.data.hex())
        elif op.opcode == OP_1NEGATE:
            tokens.append("-1")
        elif OP_1 <= op.opcode <= OP_16:
            tokens.append(str(op.opcode - 0x50))
        else:
            tokens.append(_OPCODE_NAMES.get(op.opcode, f"OP_UNKNOWN_0x{op.opcode:02x}"))
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
        doc = {"asm": script_to_asm(self.script), "hex": self.script.hex(),
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


def _multisig_count(op: ScriptOp) -> int | None:
    """The count 1..MAX_PUBKEYS_PER_MULTISIG that op encodes as Bitcoin
    Core's GetScriptNumber reads it, or None. Core takes OP_1..OP_16 or a
    minimal push of a minimal number; in this range the only such pushes
    are 17..20, each pushed as one byte by opcode 0x01."""
    if OP_1 <= op.opcode <= OP_16:
        return op.opcode - 0x50
    if op.opcode == 1 and 17 <= op.data[0] <= MAX_PUBKEYS_PER_MULTISIG:
        return op.data[0]
    return None


def nulldata_payload(script: Script) -> bytes | None:
    """Concatenated push payload when the script is an OP_RETURN carrier."""
    ops = script.parsed
    if (script.fault is None and ops and ops[0].opcode == OP_RETURN
            and all(o.opcode <= OP_16 for o in ops[1:])):
        return b"".join(o.data for o in ops[1:] if o.data is not None)
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
    # bytes do not support.
    if (len(ops) == 5 and ops[0].opcode == OP_DUP and ops[1].opcode == OP_HASH160
            and ops[2].opcode == 0x14
            and ops[3].opcode == OP_EQUALVERIFY and ops[4].opcode == OP_CHECKSIG):
        addr = Address.from_parts(network.p2pkh_version, ops[2].data)
        return DecodedScript("p2pkh", script, req_sigs=1, addresses=(addr,))

    if (len(ops) == 3 and ops[0].opcode == OP_HASH160 and ops[1].opcode == 0x14
            and ops[2].opcode == OP_EQUAL):
        addr = Address.from_parts(network.p2sh_version, ops[1].data)
        return DecodedScript("p2sh", script, req_sigs=1, addresses=(addr,))

    # Bitcoin Core's MatchMultisig: m <key>... n OP_CHECKMULTISIG, with
    # 1 <= m <= n <= 20 and n keys.
    if len(ops) >= 4 and ops[-1].opcode == OP_CHECKMULTISIG:
        m = _multisig_count(ops[0])
        n = _multisig_count(ops[-2])
        keys = ops[1:-2]
        if (m and n and m <= n == len(keys)
                and all(k.is_push and _looks_like_pubkey(k.data) for k in keys)):
            addresses = tuple(
                Address.from_parts(network.p2pkh_version, hash160(k.data)) for k in keys
            )
            return DecodedScript("multisig", script, req_sigs=m, addresses=addresses)

    payload = nulldata_payload(script)
    if payload is not None:
        return DecodedScript("nulldata", script, payload=payload)

    return DecodedScript("nonstandard", script)


def build_nulldata_script(payload: bytes) -> Script:
    """OP_RETURN carrier for payload; the 80-byte bound keeps the whole
    output script within the 83-byte relay limit."""
    if len(payload) > 80:
        raise TxError(f"nulldata payload is {len(payload)} bytes, limit 80")
    return Script(bytes([OP_RETURN]) + push_data(payload))


# ---------------------------------------------------------------------------
# Transactions
# ---------------------------------------------------------------------------

class TxInput(namedtuple("TxInput", "prev_txid prev_vout script_sig sequence witness",
                         defaults=(0xFFFFFFFF, ()))):
    __slots__ = ()


class TxOutput(namedtuple("TxOutput", "value script_pubkey")):
    __slots__ = ()

    def __new__(cls, value: int, script_pubkey: Script):  # value in satoshi
        if not 0 <= value <= MAX_MONEY:
            raise TxError(f"output value {value} outside 0..{MAX_MONEY}")
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
    reader = _Reader(raw)
    version = struct.unpack("<i", reader.read(4))[0]

    n_inputs = reader.read_compact_size()
    flagged = n_inputs == 0
    if flagged:
        # Marker byte: a legacy transaction cannot have zero inputs.
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
        if not any(txin.witness for txin in inputs):  # a second form of one record
            raise TxError("superfluous witness record")

    locktime = struct.unpack("<I", reader.read(4))[0]
    if not reader.exhausted:
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
                "hex": txin.script_sig.hex(),
            },
            "sequence": txin.sequence,
        }
        if txin.witness:
            entry["txinwitness"] = [item.hex() for item in txin.witness]
        doc["vin"].append(entry)
    for n, txout in enumerate(tx.outputs):
        script = txout.script_pubkey
        decoded = (DecodedScript("nonstandard", script) if script.fault
                   else decode_script(script, network))
        doc["vout"].append({
            "value": format_btc(txout.value),
            "n": n,
            "scriptPubKey": decoded.to_report(),
        })
    return doc
