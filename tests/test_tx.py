import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaward.anchor import (
    AwardDocument,
    HashMismatch,
    build_anchor_script,
    verify_anchor,
)
from eaward.attestation import match_transaction
from eaward.chain import get_transaction
from eaward.crypto import MAINNET, TESTNET, Address, hash160, sha256, write_compact_size
from eaward.errors import MalformedHex
from eaward.tx import (
    Script,
    Transaction,
    TxError,
    TxInput,
    TxOutput,
    Txid,
    _serialize,
    build_nulldata_script,
    compute_txid,
    decode_script,
    extract_op_return,
    format_btc,
    nulldata_payload,
    parse_transaction,
    push_data,
    script_to_asm,
    transaction_report,
)

from conftest import (
    DEMO_TXID,
    GOLDEN_ADDRESSES,
    PAYLOAD_HEX,
    PK1_HEX,
    PK2_HEX,
    PK3_HEX,
    REDEEM_HEX,
    SUPERFLUOUS_DEMO_HEX,
    rebuild,
    refcrypto,
    reftx,
)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

def txids():
    return st.binary(min_size=32, max_size=32).map(Txid)


def scripts():
    # Realistic scripts: opcode/push mixes as produced by this artifact. A
    # push of 253 bytes or more makes a script whose length is a compact
    # size of the fd form.
    elements = st.one_of(
        st.binary(min_size=0, max_size=80).map(push_data),
        st.sampled_from([b"\x76", b"\xa9", b"\x87", b"\x88", b"\xac", b"\xae", b"\x51", b"\x60"]),
        st.binary(min_size=253, max_size=300).map(push_data),
    )
    return st.lists(elements, min_size=0, max_size=6).map(
        lambda parts: Script(b"".join(parts)))


def tx_inputs():
    return st.builds(
        TxInput,
        prev_txid=txids(),
        prev_vout=st.integers(min_value=0, max_value=2**32 - 1),
        script_sig=scripts(),
        sequence=st.integers(min_value=0, max_value=2**32 - 1),
        witness=st.lists(st.binary(max_size=40), max_size=3).map(tuple),
    )


def tx_outputs():
    return st.builds(
        TxOutput,
        value=st.integers(min_value=0, max_value=21_000_000 * 10**8),
        script_pubkey=scripts(),
    )


def transactions():
    return st.builds(
        Transaction,
        version=st.integers(min_value=-2**31, max_value=2**31 - 1),
        inputs=st.lists(tx_inputs(), min_size=1, max_size=3).map(tuple),
        outputs=st.lists(tx_outputs(), min_size=1, max_size=3).map(tuple),
        locktime=st.integers(min_value=0, max_value=2**32 - 1),
    )


def _has_witness(tx: Transaction) -> bool:
    return any(txin.witness for txin in tx.inputs)


# ---------------------------------------------------------------------------
# Parse / serialize
# ---------------------------------------------------------------------------

def test_demo_fixture_parses_and_reveals_redeem_script(demo_tx, demo_tx_hex):
    final_push = demo_tx.inputs[0].script_sig.pushes()[-1]
    assert final_push.hex() == REDEEM_HEX
    assert demo_tx.to_hex() == demo_tx_hex


def test_demo_fixture_txid_frozen(demo_tx):
    assert compute_txid(demo_tx).hex() == DEMO_TXID


def test_scriptsig_asm_fourth_token_is_redeem_script(demo_tx):
    asm = script_to_asm(demo_tx.inputs[0].script_sig)
    assert asm.split(" ")[3] == REDEEM_HEX


@settings(max_examples=120, deadline=None)
@given(transactions())
def test_serialize_parse_roundtrip(tx):
    assert parse_transaction(tx.serialize().hex()) == tx


@settings(max_examples=60, deadline=None)
@given(transactions())
def test_parsed_record_keeps_the_bytes_read(tx):
    # The record parse_transaction builds from the bytes it read equals the
    # one the class builds, serializing, from the same fields.
    hex_text = tx.serialize().hex()
    parsed = parse_transaction(hex_text)
    assert parsed.raw == bytes.fromhex(hex_text)
    assert parsed.to_hex() == hex_text
    assert rebuild(parsed) == parsed


def _stripped(tx: Transaction) -> bytes:
    """The witness-stripped serialization, from the independent implementation."""
    return refcrypto.serialize_tx(
        tx.version,
        [(i.prev_txid.hash, i.prev_vout, i.script_sig.raw, i.sequence) for i in tx.inputs],
        [(o.value, o.script_pubkey.raw) for o in tx.outputs],
        tx.locktime)


@settings(max_examples=80, deadline=None)
@given(transactions())
def test_one_byte_form_carries_exactly_the_reported_witnesses(tx):
    # The marker, flag and witness are serialized exactly when some input has
    # a witness (Bitcoin Core's HasWitness), and what the report lists is
    # what the bytes carry.
    assert _has_witness(tx) == (tx.raw[4] == 0)
    vin = transaction_report(tx, TESTNET)["vin"]
    reported = [[bytes.fromhex(item) for item in entry.get("txinwitness", [])]
                for entry in vin]
    assert all(("txinwitness" in entry) == bool(items) for entry, items in zip(vin, reported))
    stripped = _stripped(tx)
    if _has_witness(tx):
        carried = b"".join(
            write_compact_size(len(items))
            + b"".join(write_compact_size(len(item)) + item for item in items)
            for items in reported)
        assert tx.raw == stripped[:4] + b"\x00\x01" + stripped[4:-4] + carried + stripped[-4:]
    else:
        assert tx.raw == stripped and not any(reported)


@settings(max_examples=60, deadline=None)
@given(transactions().filter(lambda tx: not _has_witness(tx)))
def test_legacy_txid_matches_independent_implementation(tx):
    raw = _stripped(tx)
    assert compute_txid(parse_transaction(raw.hex())).hex() == refcrypto.txid_hex(raw)


def test_parse_rejects_truncated(demo_tx_hex):
    with pytest.raises(TxError, match="needed 4 bytes, got 3"):
        parse_transaction(demo_tx_hex[:-2])


def test_parse_rejects_trailing(demo_tx_hex):
    with pytest.raises(TxError, match="extra bytes after transaction"):
        parse_transaction(demo_tx_hex + "00")


def test_parse_rejects_bad_hex():
    with pytest.raises(MalformedHex):
        parse_transaction("zz00")
    with pytest.raises(MalformedHex):
        parse_transaction("abc")


def test_parse_rejects_non_canonical_compact_size(demo_tx_hex):
    # Input count 01 re-encoded as fd0100 decodes to the same value but is
    # not the canonical form; accepting it would let two byte strings carry
    # one txid.
    assert demo_tx_hex[8:10] == "01"
    widened = demo_tx_hex[:8] + "fd0100" + demo_tx_hex[10:]
    with pytest.raises(TxError):
        parse_transaction(widened)


@pytest.mark.parametrize("n,size", [
    (0xFC, 1), (0xFD, 3), (0xFFFF, 3), (0x10000, 5), (0xFFFFFFFF, 5), (0x100000000, 9),
    (2**64 - 1, 9),
])
def test_compact_size_roundtrip_at_each_width(n, size):
    encoded = write_compact_size(n)
    reader = reftx._Reader(encoded)
    assert (len(encoded), reader.read_compact_size(), reader.exhausted) == (size, n, True)
    # Read by parse_transaction as a scriptSig length with no script after it.
    head = bytes(4) + b"\x01" + bytes(36)
    with pytest.raises(TxError, match=f"^needed {n} bytes, got 0$"):
        parse_transaction((head + encoded).hex())


def test_transaction_needs_inputs_and_outputs():
    out = TxOutput(1, Script(b"\x6a"))
    with pytest.raises(TxError):
        Transaction(2, (), (out,))
    txin = TxInput(Txid(bytes(32)), 0, Script(b""))
    no_outputs = _serialize(2, (txin,), (), 0, False).hex()
    with pytest.raises(TxError, match="needs at least one input and one output"):
        parse_transaction(no_outputs)


def test_output_value_bounds():
    with pytest.raises(TxError):
        TxOutput(21_000_000 * 10**8 + 1, Script(b""))
    # The parser checks the bound as it reads, with the class's message.
    over = tuple.__new__(TxOutput, (21_000_000 * 10**8 + 1, Script(b"")))
    hex_text = _serialize(2, (TxInput(Txid(bytes(32)), 0, Script(b"")),), (over,), 0, False).hex()
    with pytest.raises(TxError, match="^output value 2100000000000001 outside 0..2100000000000000$"):
        parse_transaction(hex_text)
    assert format_btc(123456789) == "1.23456789"
    assert format_btc(500_000) == "0.00500000"


def test_txid_display_is_byte_reversed():
    txid = Txid.from_hex(DEMO_TXID)
    assert txid.hex() == DEMO_TXID
    assert txid.hash == bytes.fromhex(DEMO_TXID)[::-1]


@pytest.mark.parametrize("text", ["", "ab" * 31, "ab" * 33])
def test_txid_hex_must_be_64_characters(text):
    with pytest.raises(TxError, match="^txid hex must be 64 characters$"):
        Txid.from_hex(text)


def test_segwit_witness_excluded_from_txid():
    base = TxInput(Txid(b"\x11" * 32), 0, Script(b""), 0xFFFFFFFF)
    out = TxOutput(5000, Script(b"\x6a\x01\x41"))
    legacy = Transaction(2, (base,), (out,))
    with_witness = Transaction(
        2, (TxInput(base.prev_txid, 0, Script(b""), 0xFFFFFFFF, (b"\x01\x02", b"")),),
        (out,))
    assert compute_txid(legacy) == compute_txid(with_witness)
    assert with_witness.serialize() != legacy.serialize()
    assert parse_transaction(with_witness.serialize().hex()) == with_witness


def test_superfluous_witness_record_refused(demo_tx_hex):
    # Bitcoin Core's UnserializeTransaction refuses a witness flag that no
    # input's witness uses: the demo would otherwise have a second, 401-byte
    # form with the same txid.
    assert len(SUPERFLUOUS_DEMO_HEX) // 2 == len(demo_tx_hex) // 2 + 3
    with pytest.raises(TxError, match="^superfluous witness record$"):
        parse_transaction(SUPERFLUOUS_DEMO_HEX)


@settings(max_examples=40, deadline=None)
@given(transactions().filter(lambda tx: not _has_witness(tx)))
def test_any_witness_flag_without_a_witness_item_is_refused(tx):
    legacy = tx.raw
    flagged = legacy[:4] + b"\x00\x01" + legacy[4:-4] + b"\x00" * len(tx.inputs) + legacy[-4:]
    with pytest.raises(TxError, match="superfluous witness record"):
        parse_transaction(flagged.hex())


def _record_or_message(parse, text):
    try:
        return parse(text)
    except (TxError, MalformedHex) as exc:
        return type(exc), str(exc)


@settings(max_examples=10, deadline=None)
@given(tx=transactions(),
       replacement=st.one_of(st.sampled_from([0x00, 0x01, 0xFC, 0xFD, 0xFE, 0xFF]),
                             st.integers(0, 255)))
def test_offset_reader_answers_as_the_reference(tx, replacement):
    # The whole hex, every prefix of it and every one-byte replacement give
    # the BytesIO reader's answer: an equal record, raw included, or the same
    # error and message.
    hex_text = tx.raw.hex()
    texts = [hex_text[:n] for n in range(len(hex_text) + 1)]
    texts += [(tx.raw[:i] + bytes([replacement]) + tx.raw[i + 1:]).hex()
              for i in range(len(tx.raw))]
    for text in texts:
        assert (_record_or_message(parse_transaction, text)
                == _record_or_message(reftx.parse_transaction, text))


def test_txid_changes_on_any_single_digit_edit_spot_check(demo_tx_hex):
    baseline = compute_txid(parse_transaction(demo_tx_hex)).hex()
    for pos in (0, 11, 101, len(demo_tx_hex) - 1):
        original = demo_tx_hex[pos]
        substitute = "0" if original != "0" else "1"
        mutated = demo_tx_hex[:pos] + substitute + demo_tx_hex[pos + 1:]
        try:
            other = compute_txid(parse_transaction(mutated)).hex()
        except TxError:
            continue  # mutation broke framing entirely; still not the same record
        assert other != baseline


# ---------------------------------------------------------------------------
# Script classification
# ---------------------------------------------------------------------------

def test_decode_redeem_script_golden():
    decoded = decode_script(REDEEM_HEX, TESTNET)
    assert decoded.kind == "multisig"
    assert decoded.req_sigs == 2
    assert [a.text for a in decoded.addresses] == GOLDEN_ADDRESSES


def test_decode_nulldata_simple():
    decoded = decode_script(Script(b"\x6a\x02AB"), TESTNET)
    assert decoded.kind == "nulldata"
    assert decoded.payload == b"AB"


def test_decode_single_op_hash160_nonstandard():
    decoded = decode_script(Script(b"\xa9"), TESTNET)
    assert decoded.kind == "nonstandard"
    assert decoded.req_sigs is None and decoded.addresses is None


def test_decode_p2pkh_and_p2sh():
    h = bytes(20)
    p2pkh = Script(b"\x76\xa9\x14" + h + b"\x88\xac")
    decoded = decode_script(p2pkh, TESTNET)
    assert decoded.kind == "p2pkh"
    assert decoded.addresses[0].text == "mfWxJ45yp2SFn7UciZyNpvDKrzbhyfKrY8"
    p2sh = Script(b"\xa9\x14" + h + b"\x87")
    assert decode_script(p2sh, TESTNET).kind == "p2sh"
    assert decode_script(p2sh, MAINNET).addresses[0].text.startswith("3")


@pytest.mark.parametrize("template", ["p2pkh", "p2sh"])
@pytest.mark.parametrize("prefix", [b"\x4c\x14", b"\x4d\x14\x00", b"\x4e\x14\x00\x00\x00"],
                         ids=["pushdata1", "pushdata2", "pushdata4"])
def test_decode_non_canonical_templates_are_nonstandard(template, prefix):
    # The hash pushed by PUSHDATA1/2/4 parses to the same 20 bytes, but
    # Bitcoin Core's Solver matches only the direct push 0x14, and BIP 16
    # evaluates no other form of P2SH: no address may be named for it.
    push = prefix + bytes(20)
    raw = b"\x76\xa9" + push + b"\x88\xac" if template == "p2pkh" else b"\xa9" + push + b"\x87"
    decoded = decode_script(Script(raw), TESTNET)
    assert decoded.kind == "nonstandard"
    assert decoded.req_sigs is None and decoded.addresses is None
    assert "addresses" not in decoded.to_report()


def test_decode_multisig_accepts_uncompressed_keys():
    key65 = b"\x04" + bytes(64)
    script = Script(bytes([0x51]) + push_data(key65) + bytes([0x51, 0xAE]))
    decoded = decode_script(script, TESTNET)
    assert decoded.kind == "multisig"
    assert decoded.req_sigs == 1


def test_decode_multisig_rejects_bad_key_shapes():
    not_key = b"\x01" * 33
    script = Script(bytes([0x51]) + push_data(not_key) + bytes([0x51, 0xAE]))
    assert decode_script(script, TESTNET).kind == "nonstandard"


@pytest.mark.parametrize("op", [
    push_data(b"\x05" + bytes(64)),  # 65 bytes without prefix 4, 6 or 7
    push_data(b""),                  # OP_0's empty push
    bytes([0x76]),                   # OP_DUP pushes nothing
], ids=["65_bytes_prefix_5", "empty_push", "no_push"])
def test_decode_multisig_rejects_other_ops_as_keys(op):
    script = Script(bytes([0x51]) + op + bytes([0x51, 0xAE]))
    assert decode_script(script, TESTNET).kind == "nonstandard"


def _multisig(m: bytes, keys: list[bytes], n: bytes) -> Script:
    return Script(m + b"".join(push_data(k) for k in keys) + n + bytes([0xAE]))


_KEY = bytes([2]) + bytes(range(32))


@pytest.mark.parametrize("count,n,kind", [
    (15, b"\x5f", "multisig"),
    (16, b"\x60", "multisig"),
    (17, b"\x01\x11", "multisig"),
    (20, b"\x01\x14", "multisig"),
    (21, b"\x01\x15", "nonstandard"),
    (16, b"\x01\x10", "nonstandard"),
    (17, b"\x02\x11\x00", "nonstandard"),
    (17, b"\x4c\x01\x11", "nonstandard"),
], ids=["15_keys", "16_keys", "17_keys_minimal_push", "20_keys_minimal_push", "21_keys",
        "16_pushed_not_op16", "17_two_byte_number", "17_pushdata1"])
def test_decode_multisig_counts_as_bitcoin_core(count, n, kind):
    # Bitcoin Core's MatchMultisig: n is OP_1..OP_16 or a minimal push of
    # a minimal number, and 1 <= m <= n <= 20.
    decoded = decode_script(_multisig(b"\x51", [_KEY] * count, n), TESTNET)
    assert decoded.kind == kind
    if kind == "multisig":
        assert decoded.req_sigs == 1 and len(decoded.addresses) == count


def test_decode_multisig_reads_m_as_script_number():
    keys = [_KEY] * 18
    assert decode_script(_multisig(b"\x01\x12", keys, b"\x01\x12"), TESTNET).req_sigs == 18
    # m above n, and m pushed where OP_2 is the minimal form.
    assert decode_script(_multisig(b"\x01\x13", keys, b"\x01\x12"), TESTNET).kind \
        == "nonstandard"
    assert decode_script(_multisig(b"\x01\x02", keys[:3], b"\x53"), TESTNET).kind \
        == "nonstandard"


@pytest.mark.parametrize("key,kind", [
    (b"\x05" + bytes(64), "nonstandard"),
    (b"\x06" + bytes(64), "multisig"),
    (b"\x07" + bytes(64), "multisig"),
    (b"\x06" + bytes(32), "nonstandard"),
    (b"\x04" + bytes(32), "nonstandard"),
], ids=["0x05", "0x06_hybrid", "0x07_hybrid", "0x06_33_bytes", "0x04_33_bytes"])
def test_decode_multisig_key_prefix_and_size(key, kind):
    # CPubKey::ValidSize: 33 bytes after 0x02/0x03, 65 after 0x04/0x06/0x07.
    decoded = decode_script(_multisig(b"\x51", [key], b"\x51"), TESTNET)
    assert decoded.kind == kind
    if kind == "multisig":
        assert decoded.addresses == (Address.from_parts(TESTNET.p2pkh_version, hash160(key)),)


@pytest.mark.parametrize("n, prefix", [
    (0, "00"), (75, "4b"), (76, "4c4c"), (0xFF, "4cff"), (0x100, "4d0001"),
    (0xFFFF, "4dffff"), (0x10000, "4e00000100"),
])
def test_push_data_takes_the_shortest_form(n, prefix):
    data = bytes(n)
    raw = push_data(data)
    assert raw == bytes.fromhex(prefix) + data
    assert Script(raw).pushes() == (data,)


def test_the_empty_push_is_a_push():
    # OP_0 pushes the empty string; opcodes that push nothing have no data.
    script = Script(b"\x00\x76\x00\x01\x07")
    assert script.parsed == ((0, b""), (0x76, None), (0, b""), (1, b"\x07"))
    assert script.pushes() == (b"", b"", b"\x07")


def test_malformed_script_ops():
    with pytest.raises(TxError, match="pushdata length field truncated"):
        Script(b"\x4c").ops()  # PUSHDATA1 missing length
    with pytest.raises(TxError, match="push runs past end of script"):
        Script(b"\x05ab").ops()  # push runs past end
    with pytest.raises(TxError, match="pushdata length field truncated"):
        decode_script(Script(b"\x51\x4c"), TESTNET)


# Bytes weighted to the pushdata opcodes and to short lengths.
_SCRIPT_BYTES = st.lists(st.one_of(st.sampled_from([0x4C, 0x4D, 0x4E]), st.integers(0, 6),
                                   st.integers(0, 255)), max_size=14).map(bytes)


@settings(max_examples=300, deadline=None)
@given(_SCRIPT_BYTES)
def test_script_reader_answers_as_the_reference(raw):
    script = Script(raw)
    ops, fault = reftx.parse_script(raw)
    assert (script.parsed, script.fault) == (tuple(ops), fault)
    assert all(type(op) is tuple and len(op) == 2 for op in script.parsed)
    assert script_to_asm(script) == reftx.script_to_asm(raw)


def test_asm_of_each_one_byte_script_as_the_reference():
    # The token table against the reference's opcode names, for every byte.
    assert ([script_to_asm(Script(bytes([op]))) for op in range(256)]
            == [reftx.script_to_asm(bytes([op])) for op in range(256)])


@pytest.mark.parametrize("raw, asm", [
    (b"\x4c", "[error]"),
    (b"\x51\x4c", "1 [error]"),
    (b"\x51\x4d\x01", "1 [error]"),      # PUSHDATA2 length cut short
    (b"\x76\x05ab", "OP_DUP [error]"),   # push runs past end
    (b"\x4c\x03ab", "[error]"),           # pushdata runs past end
])
def test_asm_of_malformed_script_stops_at_error(raw, asm):
    assert script_to_asm(Script(raw)) == asm


# ---------------------------------------------------------------------------
# asm rendering
# ---------------------------------------------------------------------------

def test_asm_golden_redeem():
    expected = f"2 {PK1_HEX} {PK2_HEX} {PK3_HEX} 3 OP_CHECKMULTISIG"
    assert script_to_asm(Script.from_hex(REDEEM_HEX)) == expected


def test_asm_empty_script():
    assert script_to_asm(Script(b"")) == ""


def test_asm_of_op_return_output(demo_tx):
    asm = script_to_asm(demo_tx.outputs[0].script_pubkey)
    assert asm.startswith("OP_RETURN 412d4a6f68")


def test_asm_one_byte_push_disambiguation():
    # Bitcoin Core's ScriptToAsmStr prints a push of at most 4 bytes as the
    # number CScriptNum(bytes, false) reads: little-endian, the sign in the
    # top bit of the last byte, minimal encoding not required. So a push
    # renders as the opcode that pushes the same number does; a longer push
    # renders as hex.
    expected = {"0114": "20", "0181": "-1", "0180": "0", "04ffffffff": "-2147483647",
                "4c0105": "5", "0107": "7", "57": "7", "0500000000ff": "00000000ff"}
    assert {raw: script_to_asm(Script.from_hex(raw)) for raw in expected} == expected


@pytest.mark.parametrize("opcode, name", [
    (0x50, "OP_RESERVED"), (0x62, "OP_VER"), (0x65, "OP_VERIF"), (0x66, "OP_VERNOTIF"),
    (0x89, "OP_RESERVED1"), (0x8A, "OP_RESERVED2"), (0xBA, "OP_CHECKSIGADD"),
    (0xFF, "OP_INVALIDOPCODE"), (0xBB, "OP_UNKNOWN"), (0xFE, "OP_UNKNOWN"),
])
def test_asm_names_defined_opcodes(opcode, name):
    # Bitcoin Core's GetOpName names every defined opcode; only undefined
    # bytes render as OP_UNKNOWN.
    assert script_to_asm(Script(bytes([opcode]))) == name


# asm token -> opcode byte, for the non-push tokens the property draws.
_OPCODE_TOKENS = {"OP_DUP": 0x76, "OP_HASH160": 0xA9, "OP_CHECKMULTISIG": 0xAE,
                  "0": 0x00, "2": 0x52, "16": 0x60, "-1": 0x4F}


@settings(max_examples=80, deadline=None)
@given(st.lists(
    st.one_of(st.binary(min_size=5, max_size=80), st.sampled_from(list(_OPCODE_TOKENS))),
    min_size=0, max_size=8,
))
def test_asm_lossless_for_multibyte_pushes(parts):
    script = Script(b"".join(
        push_data(part) if isinstance(part, bytes) else bytes([_OPCODE_TOKENS[part]])
        for part in parts))
    expected = [part.hex() if isinstance(part, bytes) else part for part in parts]
    assert script_to_asm(script) == " ".join(expected)


# ---------------------------------------------------------------------------
# OP_RETURN extraction and carriers
# ---------------------------------------------------------------------------

def test_extract_op_return_golden(demo_tx):
    payloads = extract_op_return(demo_tx)
    assert len(payloads) == 1
    assert payloads[0].hex() == PAYLOAD_HEX
    decoded_text = payloads[0].decode("ascii")
    assert decoded_text == (
        "A-JohnSmith-KkjJX C-Acme-fZN8L R-Baker-NBSvH London Cfa7jahDTDVjZwKUpk7w1ypxg8s=")


def test_extract_op_return_none():
    tx = Transaction(
        2,
        (TxInput(Txid(bytes(32)), 0, Script(b"")),),
        (TxOutput(1, Script(b"\x76\xa9\x14" + bytes(20) + b"\x88\xac")),),
    )
    assert extract_op_return(tx) == []


def test_extract_op_return_ordering():
    tx = Transaction(
        2,
        (TxInput(Txid(bytes(32)), 0, Script(b"")),),
        (
            TxOutput(0, build_nulldata_script(b"first")),
            TxOutput(1, Script(b"\x76\xa9\x14" + bytes(20) + b"\x88\xac")),
            TxOutput(0, build_nulldata_script(b"second")),
        ),
    )
    assert extract_op_return(tx) == [b"first", b"second"]


def test_build_nulldata_limits():
    script = build_nulldata_script(b"\x00" * 80)
    assert len(script.raw) == 83
    assert nulldata_payload(script) == b"\x00" * 80
    with pytest.raises(TxError, match="nulldata payload is 81 bytes, limit 80"):
        build_nulldata_script(b"\x00" * 81)


@given(st.binary(min_size=0, max_size=80))
def test_nulldata_payload_roundtrip(payload):
    assert nulldata_payload(build_nulldata_script(payload)) == payload


# ---------------------------------------------------------------------------
# Structured report
# ---------------------------------------------------------------------------

def test_transaction_report_field_paths(demo_tx):
    report = transaction_report(demo_tx, TESTNET)
    assert report["txid"] == DEMO_TXID
    assert report["vin"][0]["scriptSig"]["asm"].split(" ")[3] == REDEEM_HEX
    vout0 = report["vout"][0]["scriptPubKey"]
    assert vout0["type"] == "nulldata"
    assert report["vout"][0]["value"] == "0.00500000"
    redeem_report = decode_script(REDEEM_HEX, TESTNET).to_report()
    assert redeem_report["reqSigs"] == 2
    assert redeem_report["type"] == "multisig"
    assert redeem_report["addresses"] == GOLDEN_ADDRESSES


@settings(max_examples=60, deadline=None)
@given(transactions().filter(lambda tx: any(i.witness for i in tx.inputs)))
def test_transaction_report_lists_each_witness_item(tx):
    vin = transaction_report(tx, TESTNET)["vin"]
    for txin, entry in zip(tx.inputs, vin, strict=True):
        items = [bytes.fromhex(item) for item in entry.get("txinwitness", [])]
        assert items == list(txin.witness)


def test_transaction_report_parses_each_script_once(demo_tx_hex, monkeypatch):
    # Parsing, reporting, the anchor scan and the OP_RETURN scan of one
    # transaction all read the parse made when each Script was built.
    parsed = []
    parse = Script._parse

    def counting_parse(raw):
        parsed.append(raw)
        return parse(raw)

    monkeypatch.setattr(Script, "_parse", counting_parse)
    tx = parse_transaction(demo_tx_hex)
    transaction_report(tx, TESTNET)
    with pytest.raises(HashMismatch):
        verify_anchor(AwardDocument(b"not anchored here"), tx)
    assert extract_op_return(tx) == [bytes.fromhex(PAYLOAD_HEX)]
    scripts = ([txin.script_sig.raw for txin in tx.inputs]
               + [txout.script_pubkey.raw for txout in tx.outputs])
    assert sorted(parsed) == sorted(scripts)


def _count_serializations(monkeypatch) -> list[bool]:
    """include_witness of each serialization made from here on."""
    made = []

    def counting_serialize(*fields):
        made.append(fields[-1])
        return _serialize(*fields)

    monkeypatch.setattr("eaward.tx._serialize", counting_serialize)
    return made


def test_read_path_serializes_nothing(demo_tx_hex, fixture_source, golden_agreement,
                                      monkeypatch):
    # A parsed legacy transaction is its own stripped serialization: the
    # fetch's txid check, the report, the anchor scan and the escrow match
    # all read the bytes that were parsed.
    document = AwardDocument(b"anchored here")
    anchoring = Transaction(1, (TxInput(Txid(bytes(32)), 0, Script(b"")),),
                            (TxOutput(0, build_anchor_script(sha256(document.data))),))
    made = _count_serializations(monkeypatch)
    tx = parse_transaction(demo_tx_hex)
    fetched = get_transaction(fixture_source, Txid.from_hex(DEMO_TXID))
    report = transaction_report(fetched, TESTNET)
    with pytest.raises(HashMismatch):
        verify_anchor(AwardDocument(b"not anchored here"), fetched)
    proof = verify_anchor(document, parse_transaction(anchoring.to_hex()))
    linkage = match_transaction(golden_agreement, fetched)
    assert made == []
    assert fetched == tx and fetched.raw == bytes.fromhex(demo_tx_hex)
    assert report["size"] == len(tx.raw) and linkage.txid.hex() == DEMO_TXID
    assert proof.txid == compute_txid(anchoring)


def test_segwit_txid_serializes_the_stripped_form_once(monkeypatch):
    witnessed = TxInput(Txid(b"\x11" * 32), 0, Script(b""), 0xFFFFFFFF, (b"\x01\x02",))
    hex_text = Transaction(2, (witnessed,), (TxOutput(5000, Script(b"\x6a\x01\x41")),)).to_hex()
    made = _count_serializations(monkeypatch)
    tx = parse_transaction(hex_text)
    assert (tx.serialize(), made) == (bytes.fromhex(hex_text), [])
    compute_txid(tx)
    assert made == [False]
    transaction_report(tx, TESTNET)
    assert made == [False, False]


def standard_scripts():
    """Scripts of every kind decode_script names except nonstandard."""
    hash20 = st.binary(min_size=20, max_size=20)
    keys = st.lists(st.builds(lambda prefix, x: bytes([prefix]) + x, st.sampled_from([2, 3]),
                              st.binary(min_size=32, max_size=32)),
                    min_size=1, max_size=3)
    return st.one_of(
        hash20.map(lambda h: b"\x76\xa9\x14" + h + b"\x88\xac"),
        hash20.map(lambda h: b"\xa9\x14" + h + b"\x87"),
        keys.map(lambda ks: b"\x51" + b"".join(push_data(k) for k in ks)
                 + bytes([0x50 + len(ks), 0xAE])),
        st.binary(max_size=80).map(lambda payload: build_nulldata_script(payload).raw),
    )


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    st.binary(max_size=60),
    standard_scripts(),
    # Truncated standard scripts: pushes that run past the end.
    standard_scripts().flatmap(lambda raw: st.integers(0, len(raw)).map(lambda n: raw[:n])),
))
def test_report_output_is_asm_plus_decode_script(raw):
    script = Script(raw)
    tx = Transaction(1, (TxInput(Txid(bytes(32)), 0, Script(b"")),), (TxOutput(0, script),))
    report = transaction_report(tx, TESTNET)["vout"][0]["scriptPubKey"]
    try:
        decoded = decode_script(script, TESTNET).to_report()
    except TxError:
        decoded = {"type": "nonstandard"}
    assert report["asm"] == script_to_asm(script)
    assert report["hex"] == raw.hex()
    assert report["type"] == decoded["type"]
    assert report.get("addresses") == decoded.get("addresses")
    assert report.get("reqSigs") == decoded.get("reqSigs")
