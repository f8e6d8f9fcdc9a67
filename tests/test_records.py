"""The package's records are immutable tuples. Equal fields make equal,
equally hashed records, and copies and pickles of a record equal it; no
field can be assigned; and each check a record makes on its fields runs in
its constructor, with its message."""

import copy
import math
import pickle
import re
from datetime import datetime, timezone
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eaward
from eaward.anchor import AnchorError, AwardDocument, build_anchor_script, verify_anchor
from eaward.attestation import match_transaction, validate_agreement
from eaward.chain import ChainError, ChainSource, MalformedStatus, TxStatus
from eaward.crypto import (
    CURVE_ORDER,
    Address,
    CryptoError,
    Network,
    PrivateKey,
    PublicKey,
    RecoverableSig,
    RecoveryFailed,
    TESTNET,
    pubkey_to_address,
    sha256,
)
from eaward.escrow import EscrowPolicy, PolicyInvalid
from eaward.metadata import AwardMetadata, MetadataError, ParticipantTag, Role, decode_metadata
from eaward.msgauth import decode_signature, sign_message
from eaward.tx import (
    Script,
    Transaction,
    TxError,
    TxInput,
    TxOutput,
    Txid,
    compute_txid,
    decode_script,
    parse_transaction,
)

from conftest import PAYLOAD_HEX, build_synthetic_case, golden_pubkeys, rebuild


def _records(value):
    """value, if it is a record, and every record nested in it, depth first."""
    if hasattr(value, "_fields"):
        yield value
    if isinstance(value, tuple):
        for item in value:
            yield from _records(item)


def _same_fields(record):
    """record built again from its fields through its class."""
    return Script(record.raw) if type(record) is Script else rebuild(record)


def _builders(seed: bytes, demo_tx_hex: str):
    """Zero-argument builders of records of every kind, each built from
    outside input or from computed values."""
    case = build_synthetic_case(seed=f"records {seed.hex()}")
    key = PrivateKey.from_bytes(sha256(seed))
    signed = sign_message(key, seed.hex(), TESTNET)
    address = pubkey_to_address(key.public_key(), TESTNET)
    document = AwardDocument(b"award " + seed)
    anchoring = Transaction(1, (TxInput(Txid(sha256(seed)), 0, Script(b"")),),
                            (TxOutput(0, build_anchor_script(sha256(document.data))),))
    tx_hexes = (demo_tx_hex, case.tx.to_hex())
    return [
        *(lambda h=h: parse_transaction(h) for h in tx_hexes),
        *(lambda s=s: decode_script(Script(s), TESTNET)
          for h in tx_hexes for txin in parse_transaction(h).inputs
          for s in txin.script_sig.pushes()[-1:]),
        lambda: key.public_key(),
        lambda: PublicKey(key.public_key().data),
        lambda: Network(*TESTNET),
        lambda: Address.from_text(address.text),
        lambda: Address.from_parts(address.version, address.payload),
        lambda: sign_message(key, seed.hex(), TESTNET),
        lambda: decode_signature(signed.signature_b64),
        lambda: decode_metadata(bytes.fromhex(PAYLOAD_HEX)),
        lambda: decode_metadata(case.metadata_payload),
        lambda: rebuild(case.agreement),
        lambda: validate_agreement(case.agreement),
        lambda: match_transaction(case.agreement, case.tx),
        lambda: rebuild(case.status),
        lambda: verify_anchor(AwardDocument(document.data), anchoring),
    ]


@settings(max_examples=25, deadline=None)
@given(seed=st.binary(max_size=16))
def test_equal_fields_make_equal_immutable_records(seed, demo_tx_hex):
    kinds = set()
    for build in _builders(seed, demo_tx_hex):
        first, second = build(), build()
        assert first is not second
        for a, b in zip(_records(first), _records(second), strict=True):
            kinds.add(type(a).__name__)
            again = _same_fields(a)
            assert a == b == again == copy.deepcopy(a) == pickle.loads(pickle.dumps(a))
            assert hash(a) == hash(b) == hash(again)
            for name in a._fields:
                with pytest.raises(AttributeError):
                    setattr(a, name, getattr(b, name))
            with pytest.raises(AttributeError):
                a.extra = None
    assert kinds == {
        "Address", "AgreementReview", "AnchorProof", "ArbitrationAgreement",
        "AwardMetadata", "DecodedScript", "EscrowPolicy", "LinkageReport", "Network",
        "ParticipantTag", "Party", "PartyLinkage", "PublicKey", "RecoverableSig", "Script",
        "SignedMessage", "Transaction", "TxInput", "TxOutput", "TxStatus", "Txid"}


def test_keys_from_a_point_equal_keys_from_bytes():
    # from_point skips the curve check for points the package computed.
    for key in golden_pubkeys():
        again = PublicKey.from_point(key.point())
        assert type(again) is PublicKey and again == key and hash(again) == hash(key)


_ACR = tuple(ParticipantTag(role, "Name", "11111") for role in Role)
_FRAGMENT = "A" * 28
_SCRIPT = Script(b"")
_TXID = Txid(bytes(32))
_INPUT = TxInput(_TXID, 0, _SCRIPT)
_OUTPUT = TxOutput(0, _SCRIPT)
_WHEN = datetime(2020, 1, 1, tzinfo=timezone.utc)
_P = 2**256 - 2**32 - 977

# (constructor call, error class, message). The messages reach stderr, so
# they are part of the CLI's output.
CHECKS = {
    "pubkey_prefix": (lambda: PublicKey(b"\x04" + bytes(32)), CryptoError,
                      "public key must be 33 bytes with 0x02/0x03 prefix"),
    "pubkey_length": (lambda: PublicKey(b"\x02" + bytes(31)), CryptoError,
                      "public key must be 33 bytes with 0x02/0x03 prefix"),
    "pubkey_off_field": (lambda: PublicKey(b"\x02" + _P.to_bytes(32, "big")), CryptoError,
                         "not a curve point: x coordinate out of field range"),
    "pubkey_off_curve": (lambda: PublicKey(b"\x02" + (5).to_bytes(32, "big")), CryptoError,
                         "not a curve point: no curve point for x coordinate"),
    "privkey_zero": (lambda: PrivateKey(0), CryptoError, "private key scalar out of range"),
    "privkey_order": (lambda: PrivateKey(CURVE_ORDER, compressed=False), CryptoError,
                      "private key scalar out of range"),
    "sig_header": (lambda: RecoverableSig(35, 1, 1), RecoveryFailed,
                   "header byte 35 out of range 27..34"),
    "tag_name": (lambda: ParticipantTag(Role.CLAIMANT, "a b", "11111"), MetadataError,
                 "display name 'a b' must be ASCII alphanumerics"),
    "tag_suffix_length": (lambda: ParticipantTag(Role.CLAIMANT, "a", "1111"), MetadataError,
                          "suffix '1111' must be exactly 5 characters"),
    "tag_suffix_base58": (lambda: ParticipantTag(Role.CLAIMANT, "a", "1111O"), MetadataError,
                          "suffix '1111O' has non-base58 characters"),
    "meta_duplicate_role": (lambda: AwardMetadata(_ACR[:1] * 3, "x", _FRAGMENT), MetadataError,
                            "one tag per role required"),
    "meta_order": (lambda: AwardMetadata(_ACR[::-1], "x", _FRAGMENT), MetadataError,
                   "participants must appear in A, C, R order"),
    "meta_seat": (lambda: AwardMetadata(_ACR, "a b", _FRAGMENT), MetadataError,
                  "seat 'a b' must be one space-free printable ASCII token"),
    "meta_fragment_length": (lambda: AwardMetadata(_ACR, "x", "A"), MetadataError,
                             "signature fragment must be 28 characters"),
    "meta_fragment_base64": (lambda: AwardMetadata(_ACR, "x", "!" * 28), MetadataError,
                             "signature fragment has non-base64 characters"),
    "meta_too_long": (lambda: AwardMetadata(_ACR, "x" * 40, _FRAGMENT), MetadataError,
                      "metadata line is 108 bytes, limit 80"),
    "policy_quorum": (lambda: EscrowPolicy(3, golden_pubkeys()[:2]), PolicyInvalid,
                      "need 1 <= m <= n <= 15, got m=3, n=2"),
    "policy_duplicate": (lambda: EscrowPolicy(1, golden_pubkeys()[:1] * 2), PolicyInvalid,
                         "duplicate public keys in policy"),
    "document_empty": (lambda: AwardDocument(b""), AnchorError, "award document is empty"),
    "txid_length": (lambda: Txid(bytes(31)), TxError, "txid must wrap 32 bytes"),
    "output_value": (lambda: TxOutput(-1, _SCRIPT), TxError,
                     "output value -1 outside 0..2100000000000000"),
    "input_vout": (lambda: TxInput(_TXID, 2**32, _SCRIPT), TxError,
                   "prev_vout 4294967296 outside 0..4294967295"),
    "input_vout_negative": (lambda: TxInput(_TXID, -1, _SCRIPT), TxError,
                            "prev_vout -1 outside 0..4294967295"),
    "input_sequence": (lambda: TxInput(_TXID, 0, _SCRIPT, 2**32), TxError,
                       "sequence 4294967296 outside 0..4294967295"),
    "input_sequence_negative": (lambda: TxInput(_TXID, 0, _SCRIPT, -1), TxError,
                                "sequence -1 outside 0..4294967295"),
    "tx_version": (lambda: Transaction(2**31, (_INPUT,), (_OUTPUT,)), TxError,
                   "version 2147483648 outside -2147483648..2147483647"),
    "tx_version_negative": (lambda: Transaction(-2**31 - 1, (_INPUT,), (_OUTPUT,)), TxError,
                            "version -2147483649 outside -2147483648..2147483647"),
    "tx_locktime": (lambda: Transaction(1, (_INPUT,), (_OUTPUT,), 2**32), TxError,
                    "locktime 4294967296 outside 0..4294967295"),
    "tx_locktime_negative": (lambda: Transaction(1, (_INPUT,), (_OUTPUT,), -1), TxError,
                             "locktime -1 outside 0..4294967295"),
    "tx_no_inputs": (lambda: Transaction(1, (), (_OUTPUT,)), TxError,
                     "transaction needs at least one input and one output"),
    "tx_no_outputs": (lambda: Transaction(1, (_INPUT,), ()), TxError,
                      "transaction needs at least one input and one output"),
    "status_negative": (lambda: TxStatus(None, -1), MalformedStatus,
                        "confirmations is negative: -1"),
    "status_time_without_confirmations": (lambda: TxStatus(_WHEN, 0), MalformedStatus,
                                          "block_time present iff confirmations > 0"),
    "status_confirmations_without_time": (lambda: TxStatus(None, 3, "aa"), MalformedStatus,
                                          "block_time present iff confirmations > 0"),
    "status_naive_time": (lambda: TxStatus(datetime(2020, 1, 1), 3), MalformedStatus,
                          "block_time has no time zone: 2020-01-01 00:00:00"),
    "source_timeout": (lambda: ChainSource("live", TESTNET, "http://x", None, math.nan),
                       ChainError, "timeout must be a positive number of seconds, got nan"),
    "source_endpoint": (lambda: ChainSource("live"), ChainError,
                        "live source needs an endpoint URL"),
    "source_fixture_root": (lambda: ChainSource("fixture", TESTNET, "http://x"), ChainError,
                            "fixture source needs a fixture root directory"),
    "source_mode": (lambda: ChainSource("ftp", fixture_root="."), ChainError,
                    "unknown source mode 'ftp'"),
}


@pytest.mark.parametrize("build,error,message", CHECKS.values(), ids=CHECKS.keys())
def test_every_check_runs_in_the_constructor(build, error, message):
    with pytest.raises(error) as caught:
        build()
    assert str(caught.value) == message


def test_integer_fields_take_the_whole_range_of_their_width():
    for version, vout, sequence, locktime in ((-2**31, 0xFFFFFFFF, 0, 0xFFFFFFFF),
                                              (2**31 - 1, 0, 0xFFFFFFFF, 0)):
        tx = Transaction(version, (TxInput(_TXID, vout, _SCRIPT, sequence),), (_OUTPUT,),
                         locktime)
        assert parse_transaction(tx.to_hex()) == tx


def test_rebuilding_a_record_runs_its_checks():
    # A changed copy goes through the constructor, never around it.
    output = TxOutput(5, _SCRIPT)
    with pytest.raises(TxError, match="output value -1 outside"):
        rebuild(output, value=-1)
    with pytest.raises(CryptoError, match="scalar out of range"):
        rebuild(PrivateKey(1), scalar=0)
    # A script's parse is made again from its bytes, whatever is passed for it.
    script = rebuild(Script(b"\x51"), raw=b"\x05ab")
    assert script == Script(b"\x05ab")
    assert (script.parsed, script.fault) == ((), "push runs past end of script")
    assert rebuild(Script(b"\x51"), parsed=(), fault="forged") == Script(b"\x51")
    source = "".join(p.read_text() for p in Path(eaward.__file__).parent.glob("*.py"))
    assert not re.search(r"\._(make|replace)\(", source)


def test_a_rebuilt_transaction_carries_its_own_bytes(demo_tx_hex):
    # raw follows the fields: a changed copy of a parsed transaction is
    # serialized again, and bytes passed for raw are not kept.
    tx = parse_transaction(demo_tx_hex)
    later = rebuild(tx, locktime=tx.locktime ^ 1)
    assert later.raw[:-4] == tx.raw[:-4]
    assert later.raw[-4:] == (tx.locktime ^ 1).to_bytes(4, "little")
    assert parse_transaction(later.raw.hex()) == later
    output = TxOutput(1, Script(b"\x51"))
    paid = rebuild(tx, outputs=(output,))
    assert parse_transaction(paid.serialize().hex()).outputs == (output,)
    assert compute_txid(paid) != compute_txid(tx)
    assert rebuild(tx, raw=b"forged") == tx


def test_chain_source_keeps_its_fields():
    source = ChainSource("live", TESTNET, "http://x/", None, 2.5)
    assert (source.mode, source.network, source.endpoint, source.fixture_root,
            source.timeout) == ("live", TESTNET, "http://x", None, 2.5)
    source = ChainSource("fixture", fixture_root="chain")
    assert source.fixture_root == Path("chain") and source.network == TESTNET
