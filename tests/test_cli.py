import argparse
import builtins
import contextlib
import dis
import functools
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eaward
from eaward import cli
from eaward.anchor import READ_CHUNK, AwardDocument, verify_anchor
from eaward.chain import MAX_BODY, ChainSource
from eaward.cli import main
from eaward.tx import (Script, Transaction, TxInput, TxOutput, Txid, build_nulldata_script,
                       compute_txid, parse_transaction, push_data)
from eaward.crypto import MAINNET, Address, PrivateKey, sha256
from eaward.errors import Refusal

from conftest import (
    ADDR_A,
    ADDR_C,
    ATTEST_MESSAGE,
    CHAIN_DIR,
    DEMO_TXID,
    FIXTURES,
    MALFORMED_LIVE_STATUS,
    P2SH_TESTNET,
    PAYLOAD_HEX,
    PK1_HEX,
    PK2_HEX,
    PK3_HEX,
    REDEEM_HEX,
    SIGNATURE_B64,
    SUPERFLUOUS_DEMO_HEX,
    live_status_responses,
    rebuild,
)

AGREEMENT = str(FIXTURES / "agreement.json")
POLICY = str(FIXTURES / "policy.json")
AWARD = str(FIXTURES / "award.txt")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_msg_verify_golden_true(capsys):
    code, out, _ = run(capsys, "msg", "verify", ADDR_A, SIGNATURE_B64, ATTEST_MESSAGE)
    assert code == 0
    assert out == "true\n"


def test_msg_verify_false_exit_1(capsys):
    code, out, _ = run(capsys, "msg", "verify", ADDR_A, SIGNATURE_B64,
                       ATTEST_MESSAGE.replace("London", "Paris"))
    assert code == 1
    assert out == "false\n"


def test_msg_verify_malformed_exit_2(capsys):
    code, out, err = run(capsys, "msg", "verify", ADDR_A, "!!!", ATTEST_MESSAGE)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("signature", ["!!!", "YWJj"], ids=["not_base64", "three_bytes"])
def test_malformed_attestation_exit_2(capsys, signature):
    out, _ = _data_error(capsys, "msg", "verify", ADDR_A, signature, ATTEST_MESSAGE)
    assert out == ""
    out, err = _data_error(capsys, "--fixture-root", str(CHAIN_DIR), "certify", AGREEMENT,
                           DEMO_TXID, "--attestation", signature, "--certifier", "W")
    assert out == ""
    assert "not a base64 recoverable signature" in err


def test_meta_decode_golden(capsys):
    code, out, _ = run(capsys, "meta", "decode", PAYLOAD_HEX)
    assert code == 0
    assert "A-JohnSmith-KkjJX" in out
    assert "seat: London" in out


def test_meta_decode_json(capsys):
    code, out, _ = run(capsys, "--json", "meta", "decode", PAYLOAD_HEX)
    doc = json.loads(out)
    assert doc["seat"] == "London"
    assert doc["participants"][0] == {"role": "A", "name": "JohnSmith",
                                      "suffix": "KkjJX"}


def test_meta_decode_bad_hex_exit_2(capsys):
    code, _, err = run(capsys, "meta", "decode", "zz")
    assert code == 2 and "error" in err


def test_meta_encode_matches_golden(capsys):
    code, out, _ = run(capsys, "meta", "encode", AGREEMENT, "--sig", SIGNATURE_B64)
    assert code == 0
    assert PAYLOAD_HEX in out


def test_script_decode(capsys):
    code, out, _ = run(capsys, "script", "decode", REDEEM_HEX)
    doc = json.loads(out)
    assert doc["type"] == "multisig"
    assert doc["reqSigs"] == 2
    assert doc["p2sh"] == P2SH_TESTNET
    assert len(doc["addresses"]) == 3
    assert run(capsys, "script", "decode", "4c") == (
        2, "", "error: pushdata length field truncated\n")


def test_script_and_tx_decode_name_no_address_for_non_canonical_templates(capsys, demo_tx_hex):
    # The PUSHDATA1/2/4 forms of P2SH and P2PKH are nonstandard, as in
    # Bitcoin Core; the canonical forms keep their type and address.
    h = bytes(range(20)).hex()
    cases = {f"a914{h}87": "p2sh", f"76a914{h}88ac": "p2pkh"}
    for push in ("4c14", "4d1400", "4e14000000"):
        cases[f"a9{push}{h}87"] = cases[f"76a9{push}{h}88ac"] = "nonstandard"
    tx = parse_transaction(demo_tx_hex)
    outputs = tuple(TxOutput(0, Script.from_hex(raw)) for raw in cases)
    code, out, _ = run(capsys, "tx", "decode", rebuild(tx, outputs=outputs).to_hex())
    assert code == 0
    reported = [v["scriptPubKey"] for v in json.loads(out)["vout"]]
    for (raw, kind), in_tx in zip(cases.items(), reported, strict=True):
        code, out, _ = run(capsys, "script", "decode", raw)
        doc = json.loads(out)
        assert code == 0 and doc["type"] == in_tx["type"] == kind
        assert ("addresses" in doc) == ("addresses" in in_tx) == (kind != "nonstandard")


def test_tx_decode_raw_hex(capsys, demo_tx_hex):
    code, out, _ = run(capsys, "tx", "decode", demo_tx_hex)
    doc = json.loads(out)
    assert doc["txid"] == DEMO_TXID
    assert doc["vin"][0]["scriptSig"]["asm"].split(" ")[3] == REDEEM_HEX
    assert doc["vout"][0]["scriptPubKey"]["asm"].startswith("OP_RETURN 412d4a6f68")


def test_tx_decode_reports_unparseable_scripts(capsys, demo_tx_hex):
    # An output script or a coinbase scriptSig may be any bytes; one that
    # stops parsing renders as Bitcoin Core's decoderawtransaction does.
    tx = parse_transaction(demo_tx_hex)
    odd = [TxOutput(0, Script(raw)) for raw in (b"\x4c", b"\x51\x4c")]
    txin = rebuild(tx.inputs[0], script_sig=Script(b"\x03\x01\x02"))
    code, out, err = run(capsys, "tx", "decode",
                         rebuild(tx, inputs=(txin,), outputs=tx.outputs + tuple(odd)).to_hex())
    assert (code, err) == (0, "")
    doc = json.loads(out)
    _, demo_out, _ = run(capsys, "tx", "decode", demo_tx_hex)
    assert doc["vout"][:len(tx.outputs)] == json.loads(demo_out)["vout"]
    assert doc["vin"][0]["scriptSig"] == {"asm": "[error]", "hex": "030102"}
    assert [v["scriptPubKey"] for v in doc["vout"][len(tx.outputs):]] == [
        {"asm": "[error]", "hex": "4c", "type": "nonstandard"},
        {"asm": "1 [error]", "hex": "514c", "type": "nonstandard"},
    ]


def test_tx_decode_by_txid_from_fixture(capsys, demo_tx_hex):
    code, out, _ = run(capsys, "--fixture-root", str(CHAIN_DIR),
                       "tx", "decode", DEMO_TXID)
    assert code == 0
    assert json.loads(out)["txid"] == DEMO_TXID
    # Hex given on the command line and hex read from a fixture give one report.
    assert run(capsys, "tx", "decode", demo_tx_hex) == (0, out, "")


def test_superfluous_witness_record_exit_2(capsys, tmp_path):
    # The demo's second byte form is refused given as hex, served by a
    # source, and offered for broadcast, which then writes no fixture.
    _, err = _data_error(capsys, "tx", "decode", SUPERFLUOUS_DEMO_HEX)
    assert err == "error: superfluous witness record\n"
    (tmp_path / f"{DEMO_TXID}.hex").write_text(SUPERFLUOUS_DEMO_HEX + "\n")
    _, err = _data_error(capsys, "--fixture-root", str(tmp_path), "tx", "decode", DEMO_TXID)
    assert err == "error: source returned unparseable bytes: superfluous witness record\n"
    root = tmp_path / "broadcast"
    _, err = _data_error(capsys, "--fixture-root", str(root), "tx", "broadcast",
                         SUPERFLUOUS_DEMO_HEX)
    assert err == "error: unparseable transaction: superfluous witness record\n"
    assert not root.exists()


@pytest.mark.parametrize("left", [b"", b"not a transaction\n"], ids=["empty", "garbage"])
def test_broadcast_replaces_a_sidecar_that_does_not_hold_the_transaction(capsys, tmp_path,
                                                                        demo_tx_hex, left):
    # An interrupted write leaves an empty sidecar, and a broadcast mends it.
    sidecar = tmp_path / f"{DEMO_TXID}.hex"
    sidecar.write_bytes(left)
    assert run(capsys, "--fixture-root", str(tmp_path), "tx", "broadcast", demo_tx_hex) == (
        0, f"{DEMO_TXID}\n", "")
    assert list(tmp_path.iterdir()) == [sidecar]
    assert sidecar.read_text() == demo_tx_hex + "\n"
    code, out, _ = run(capsys, "--fixture-root", str(tmp_path), "tx", "decode", DEMO_TXID)
    assert code == 0 and json.loads(out)["txid"] == DEMO_TXID


def test_tx_decode_bad_hex_exit_2(capsys):
    code, _, err = run(capsys, "tx", "decode", "00ff00")
    assert code == 2 and "error" in err
    # bytes.fromhex skips ASCII whitespace between digit pairs; spaced
    # digits are still refused.
    for text, message in [("abc", "odd-length hex input"),
                          ("ab cd", "non-hex characters in input"),
                          ("zz", "non-hex characters in input")]:
        assert run(capsys, "tx", "decode", text) == (2, "", f"error: {message}\n")


def test_tx_decode_missing_fixture_root_exit_2(capsys, monkeypatch):
    monkeypatch.delenv("EAWARD_FIXTURE_ROOT", raising=False)
    code, _, err = run(capsys, "tx", "decode", DEMO_TXID)
    assert code == 2 and "fixture" in err


def test_escrow_address(capsys, tmp_path):
    code, out, _ = run(capsys, "escrow", "address", POLICY)
    assert code == 0
    assert f"address: {P2SH_TESTNET}" in out
    assert REDEEM_HEX in out
    # A key off the curve, or with x at or above the field prime, is named.
    policy = tmp_path / "policy.json"
    shutil.copy(POLICY, policy)
    for x, reason in [(5, "no curve point for x coordinate"),
                      (2**256 - 2**32 - 977, "x coordinate out of field range")]:
        _replace_field(policy, ("pubkeys", 0), f"02{x:064x}")
        _, err = _data_error(capsys, "escrow", "address", str(policy))
        assert f"pubkeys[0]: not a curve point: {reason}" in err


def test_agreement_validate_ok(capsys):
    code, out, _ = run(capsys, "agreement", "validate", AGREEMENT)
    assert code == 0
    assert "ok" in out


def test_agreement_validate_bad(capsys, tmp_path):
    doc = json.loads((FIXTURES / "agreement.json").read_text())
    doc["parties"][1]["address"] = doc["parties"][0]["address"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "agreement", "validate", str(bad))
    assert code == 1
    assert "violation" in out


_MAINNET_C = Address.from_parts(MAINNET.p2pkh_version, Address.from_text(ADDR_C).payload).text


@pytest.mark.parametrize("path,value,violation", [
    (("parties", 1, "address"), _MAINNET_C, "party addresses mix network version bytes"),
    (("seat",), "", "agreement names no seat"),
    (("parties", 1, "displayName"), "Acme\n",
     "CLAIMANT display name unusable in metadata: "
     "display name 'Acme\\n' must be ASCII alphanumerics"),
], ids=["mainnet_address", "empty_seat", "display_name_line_feed"])
def test_agreement_validate_names_violation(capsys, tmp_path, path, value, violation):
    file = tmp_path / "agreement.json"
    shutil.copy(FIXTURES / "agreement.json", file)
    _replace_field(file, path, value)
    code, out, _ = run(capsys, "agreement", "validate", str(file))
    lines = out.splitlines()
    assert (code, lines[-1]) == (1, "invalid")
    assert f"violation: {violation}" in lines


def test_msg_sign_roundtrip_key_file(capsys, tmp_path):
    key_file = tmp_path / "key.hex"
    key_file.write_text(sha256(b"cli signer").hex() + "\n")
    code, out, _ = run(capsys, "msg", "sign", str(key_file), "cli test message")
    assert code == 0
    signature = out.strip()
    assert len(signature) == 88

    code, out, _ = run(capsys, "--json", "msg", "sign", str(key_file),
                       "cli test message")
    doc = json.loads(out)
    code, out, _ = run(capsys, "msg", "verify", doc["address"], signature,
                       "cli test message")
    assert code == 0 and out == "true\n"


def test_msg_sign_env_key(capsys, monkeypatch):
    # RFC 6979 nonces make the signature a function of key and message alone.
    monkeypatch.setenv("CLI_TEST_KEY", sha256(b"ci signing key").hex())
    signature = ("IP1WonMLEdBsSiUiIrhwy3VJxqvexKhacZIkn4Ujk0AWWfT0tn3penvlxhg834sIs+bRQj3y"
                 "cqdat1phtj2FESU=")
    assert run(capsys, "msg", "sign", "env:CLI_TEST_KEY", ATTEST_MESSAGE) == (
        0, f"{signature}\n", "")
    assert run(capsys, "msg", "verify", "msejALPWiJojfoT4E7nGiSsr14HVtLL9DC", signature,
               ATTEST_MESSAGE) == (0, "true\n", "")


def test_msg_sign_missing_key_exit_2(capsys, tmp_path):
    code, _, err = run(capsys, "msg", "sign", "/does/not/exist", "m")
    assert code == 2 and "key file" in err
    # A path that exists but is no readable file.
    code, _, err = run(capsys, "msg", "sign", str(tmp_path), "m")
    assert code == 2 and err.startswith(f"error: key file {tmp_path}: ")


def test_msg_sign_key_file_removed_after_a_probe_exit_2(capsys, tmp_path, monkeypatch):
    # The read decides that a key file is missing, also under a path whose
    # parent is a file, and after an existence check that answered True.
    (tmp_path / "plain").write_text("")
    monkeypatch.setattr(Path, "exists", lambda self, *args, **kwargs: True)
    for ref in (tmp_path / "absent", tmp_path / "plain" / "key"):
        code, _, err = run(capsys, "msg", "sign", str(ref), "m")
        assert (code, err) == (2, f"error: key file {ref} does not exist\n")


def test_anchor_create_store_hashes_the_document_once(capsys, tmp_path):
    # The content id the store returns is the anchored digest.
    with mock.patch("eaward.anchor.sha256", wraps=sha256) as digest:
        code, out, _ = run(capsys, "--store-root", str(tmp_path), "anchor", "create", AWARD,
                           "--store")
    assert code == 0
    assert digest.call_count == 1
    doc_hash = sha256(Path(AWARD).read_bytes()).hex()
    assert out.splitlines()[::2] == [f"docHash: {doc_hash}", f"contentId: {doc_hash}"]


@pytest.mark.parametrize("corrupt", [lambda data: b"", lambda data: data[:-1] + b"X"],
                         ids=["emptied", "same_length"])
def test_anchor_create_store_repairs_a_corrupt_object(capsys, tmp_path, corrupt):
    argv = ["--store-root", str(tmp_path), "anchor", "create", AWARD, "--store"]
    data = Path(AWARD).read_bytes()
    first = run(capsys, *argv)
    obj = tmp_path / sha256(data).hex()
    obj.write_bytes(corrupt(data))
    assert run(capsys, *argv) == first
    assert obj.read_bytes() == data
    assert [p.name for p in tmp_path.iterdir()] == [obj.name]


def test_anchor_create_store_without_root_exit_2(capsys, monkeypatch):
    monkeypatch.delenv("EAWARD_STORE_ROOT", raising=False)
    out, err = _data_error(capsys, "anchor", "create", AWARD, "--store")
    assert (out, err) == ("", "error: object store needs --store-root or EAWARD_STORE_ROOT\n")


def test_anchor_create_and_verify_through_broadcast(capsys, tmp_path):
    store_root = tmp_path / "store"
    code, out, _ = run(capsys, "--json", "--store-root", str(store_root),
                       "anchor", "create", AWARD, "--store")
    doc = json.loads(out)
    assert code == 0
    digest = bytes.fromhex(doc["docHash"])
    assert doc["contentId"] == doc["docHash"]

    anchor_tx = Transaction(
        2,
        (TxInput(Txid(bytes(32)), 0, Script(b"")),),
        (TxOutput(0, build_nulldata_script(digest)),),
    )
    fixture_root = tmp_path / "chain"
    code, out, _ = run(capsys, "--fixture-root", str(fixture_root),
                       "tx", "broadcast", anchor_tx.to_hex())
    assert code == 0
    txid = out.strip()
    assert txid == compute_txid(anchor_tx).hex()

    code, out, _ = run(capsys, "--json", "--fixture-root", str(fixture_root),
                       "anchor", "verify", AWARD, txid)
    assert code == 0
    proof = json.loads(out)
    assert proof["docHash"] == doc["docHash"]
    assert proof["vout"] == 0


def _confirmed_anchor(fixture_root: Path) -> str:
    """Writes to fixture_root a transaction that anchors AWARD in its
    second output, confirmed 6 times; returns its txid."""
    digest = hashlib.sha256(Path(AWARD).read_bytes()).digest()
    anchor_tx = Transaction(
        2,
        (TxInput(Txid(bytes(32)), 0, Script(b"")),),
        (TxOutput(1000, Script(b"\x51")), TxOutput(0, build_nulldata_script(digest))),
    )
    txid = compute_txid(anchor_tx).hex()
    fixture_root.mkdir(parents=True, exist_ok=True)
    (fixture_root / f"{txid}.hex").write_text(anchor_tx.to_hex() + "\n")
    (fixture_root / f"{txid}.status").write_text(json.dumps(
        {"blockTime": "2019-03-28T15:46:53Z", "confirmations": 6, "blockHash": "bb" * 32}))
    return txid


def test_anchor_verify_confirmed_golden(capsys, tmp_path):
    digest = hashlib.sha256(Path(AWARD).read_bytes()).hexdigest()
    fixture_root = tmp_path / "chain"
    txid = _confirmed_anchor(fixture_root)

    code, out, _ = run(capsys, "--fixture-root", str(fixture_root),
                       "anchor", "verify", AWARD, txid)
    assert code == 0
    assert out == (f"docHash: {digest}\ntxid: {txid}\nvout: 1\n"
                   "blockTime: 2019-03-28T15:46:53Z\nconfirmations: 6\n")

    code, out, _ = run(capsys, "--json", "--fixture-root", str(fixture_root),
                       "anchor", "verify", AWARD, txid)
    assert code == 0
    assert out == json.dumps({"docHash": digest, "txid": txid, "vout": 1,
                              "blockTime": "2019-03-28T15:46:53Z",
                              "confirmations": 6}, indent=2) + "\n"


def test_anchor_verify_mismatch_exit_1(capsys, tmp_path):
    other = Transaction(
        2,
        (TxInput(Txid(bytes(32)), 0, Script(b"")),),
        (TxOutput(0, build_nulldata_script(sha256(b"some other document"))),),
    )
    fixture_root = tmp_path / "chain"
    run(capsys, "--fixture-root", str(fixture_root), "tx", "broadcast",
        other.to_hex())
    code, out, err = run(capsys, "--fixture-root", str(fixture_root),
                         "anchor", "verify", AWARD, compute_txid(other).hex())
    digest = hashlib.sha256(Path(AWARD).read_bytes()).hexdigest()
    assert (code, out, err) == (
        1, "false\n",
        f"error: nulldata present but no payload equals the document digest {digest}\n")


def _main_output(argv) -> tuple[int, str, str]:
    """cli.main's exit code, stdout and stderr, without pytest's capture
    fixtures, which hypothesis cannot reset between examples."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _whole_bytes_answer(data: bytes, tx: Transaction) -> tuple[int, str, str]:
    """What `anchor verify` answers for data against an unconfirmed tx,
    from the library's whole-bytes verify_anchor."""
    try:
        proof = verify_anchor(AwardDocument(data), tx)
    except Refusal as exc:
        return 1, "false\n", f"error: {exc}\n"
    report = {**proof.to_report(), "confirmations": 0}
    return 0, "".join(f"{k}: {v}\n" for k, v in report.items()), ""


@settings(max_examples=25, deadline=None)
@given(length=st.integers(1, 4 * READ_CHUNK), seed=st.integers(0, 2**32 - 1))
@example(length=1, seed=0)
@example(length=READ_CHUNK - 1, seed=0)
@example(length=READ_CHUNK, seed=0)
@example(length=READ_CHUNK + 1, seed=0)
@example(length=2 * READ_CHUNK, seed=0)
@example(length=3 * READ_CHUNK + 7, seed=0)
def test_anchor_commands_hash_the_document_in_chunks(tmp_path_factory, length, seed):
    # Chunked reads answer as the whole bytes do, on each side of a chunk edge.
    root = tmp_path_factory.mktemp("anchor")
    data = random.Random(seed).randbytes(length)
    doc = root / "award.bin"
    doc.write_bytes(data)
    code, out, err = _main_output(["anchor", "create", str(doc)])
    assert (code, err) == (0, "")
    assert out.splitlines()[0] == f"docHash: {hashlib.sha256(data).hexdigest()}"
    for anchored in (data, data + b"another document"):
        tx = Transaction(2, (TxInput(Txid(bytes(32)), 0, Script(b"")),),
                         (TxOutput(0, build_nulldata_script(sha256(anchored))),))
        txid = compute_txid(tx).hex()
        (root / f"{txid}.hex").write_text(tx.to_hex() + "\n")
        assert _main_output(["--fixture-root", str(root), "anchor", "verify", str(doc),
                             txid]) == _whole_bytes_answer(data, tx)


@pytest.mark.parametrize("command", [
    ("anchor", "create", "{doc}"),
    ("--fixture-root", str(CHAIN_DIR), "anchor", "verify", "{doc}", DEMO_TXID),
], ids=["create", "verify"])
@pytest.mark.parametrize("doc,err", [
    ("empty", "error: award document is empty\n"),
    ("tests//fixtures", "error: [Errno 21] Is a directory: 'tests/fixtures'\n"),
    ("a//b", "error: [Errno 2] No such file or directory: 'a/b'\n"),
], ids=["empty", "directory", "missing"])
def test_anchor_document_errors_exit_2(capsys, tmp_path, monkeypatch, command, doc, err):
    # Paths are reported as pathlib normalizes them.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "empty").write_bytes(b"")
    (tmp_path / "tests" / "fixtures").mkdir(parents=True)
    assert run(capsys, *(arg.format(doc=doc) for arg in command)) == (2, "", err)


def test_anchor_commands_memory_does_not_grow_with_the_document(tmp_path):
    # A child process's high-water RSS over `anchor verify` and `anchor
    # create` of a 32 MiB document stays within 4 MiB of a 1 MiB one's.
    if not Path("/proc/self/status").exists():
        pytest.skip("no /proc/self/status to read VmHWM from")

    def peak_kb(size: int) -> int:
        doc = tmp_path / f"doc-{size}"
        with open(doc, "wb") as fh:
            fh.truncate(size)  # sparse: the test itself holds no copy
        verify = ["--fixture-root", str(CHAIN_DIR), "anchor", "verify", str(doc), DEMO_TXID]
        create = ["anchor", "create", str(doc)]
        script = (
            "import contextlib, io\n"
            "import eaward.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    assert eaward.cli.main({verify!r}) == 1\n"
            f"    assert eaward.cli.main({create!r}) == 0\n"
            "with open('/proc/self/status') as fh:\n"
            "    print(next(l.split()[1] for l in fh if l.startswith('VmHWM:')))\n"
        )
        return int(_run_fresh(script, "-S"))

    assert peak_kb(32 << 20) - peak_kb(1 << 20) < 4 << 10


def test_certify_golden(capsys, tmp_path):
    out_file = tmp_path / "certificate.json"
    code, out, _ = run(capsys, "--fixture-root", str(CHAIN_DIR),
                       "certify", AGREEMENT, DEMO_TXID,
                       "--attestation", SIGNATURE_B64,
                       "--certifier", "Expert Witness",
                       "--out", str(out_file))
    assert code == 0
    assert "The transaction amount was 0.005 BTC" in out
    assert "John Smith's wallet digitally signed the embedded data." in out
    saved = json.loads(out_file.read_text())
    assert saved["txid"] == DEMO_TXID
    assert saved["timeEvidence"]["confirmations"] == 1000


def test_certify_corrupt_attestation_exit_1(capsys):
    corrupted = SIGNATURE_B64[:30] + ("A" if SIGNATURE_B64[30] != "A" else "B") + SIGNATURE_B64[31:]
    code, out, err = run(capsys, "--fixture-root", str(CHAIN_DIR),
                         "certify", AGREEMENT, DEMO_TXID,
                         "--attestation", corrupted,
                         "--certifier", "W")
    assert code == 1
    assert out.startswith("false")


def test_certify_unknown_txid_exit_2(capsys):
    code, _, err = run(capsys, "--fixture-root", str(CHAIN_DIR),
                       "certify", AGREEMENT, "ab" * 32,
                       "--attestation", SIGNATURE_B64, "--certifier", "W")
    assert code == 2 and "error" in err


def _certify_data_error(capsys, *source_args, agreement=AGREEMENT):
    code, out, err = run(capsys, *source_args, "certify", agreement, DEMO_TXID,
                         "--attestation", SIGNATURE_B64, "--certifier", "W")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    return err


@pytest.mark.parametrize("path,value", [
    (("policy", "pubkeys", 0), "zz" * 33),
    (("agreementTextHash",), "not hex"),
    (("agreementTextHash",), " "),
    (("agreementTextHash",), "ab cd"),
    (("policy", "pubkeys", 0), PK1_HEX[:10] + " " + PK1_HEX[10:]),
    (("parties", 1, "address"), "zzz"),
    (("parties", 1, "role"), "X"),
    (("policy", "pubkeys", 2), "02" + "00" * 32),
    (("agreementTextHash",), "ab"),
    (("agreementTextHash",), "ab" * 33),
], ids=["pubkey", "agreementTextHash", "text_hash_whitespace_only", "text_hash_inner_space",
        "pubkey_inner_space", "address_not_base58check", "role_letter", "pubkey_off_curve",
        "text_hash_one_byte", "text_hash_33_bytes"])
def test_certify_non_hex_agreement_exit_2(capsys, tmp_path, path, value):
    agreement = _agreement_with_field(tmp_path, path, value)
    err = _certify_data_error(capsys, "--fixture-root", str(CHAIN_DIR), agreement=agreement)
    field = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)[1:]
    assert f"{agreement}: bad agreement document: {field}: " in err


@pytest.mark.parametrize("status", [
    {"blockTime": "28/03/2019 15:46", "confirmations": 1000},
    {"blockTime": "2019-03-28T15:46:53Z", "confirmations": "many"},
    {"blockTime": "2019-03-28T15:46:53Z", "confirmations": True},
    {"blockTime": "2019-03-28T15:46:53Z", "confirmations": 2.7},
    {"blockTime": "2019-03-28T15:46:53Z", "confirmations": 1000, "blockHash": ["aa"]},
    {"confirmations": -5},
], ids=["blocktime", "confirmations", "confirmations_bool", "confirmations_float",
        "blockhash_list", "confirmations_negative"])
def test_certify_malformed_fixture_status_exit_2(capsys, tmp_path, status):
    root = tmp_path / "chain"
    shutil.copytree(CHAIN_DIR, root)
    (root / f"{DEMO_TXID}.status").write_text(json.dumps(status))
    _certify_data_error(capsys, "--fixture-root", str(root))


@pytest.mark.parametrize("doc,tip", MALFORMED_LIVE_STATUS.values(),
                         ids=MALFORMED_LIVE_STATUS.keys())
def test_certify_malformed_live_status_exit_2(capsys, monkeypatch, demo_tx_hex, doc, tip):
    responses = live_status_responses(doc, tip)
    responses[f"http://x/tx/{DEMO_TXID}/hex"] = (200, demo_tx_hex.encode())
    monkeypatch.setattr("eaward.chain.ChainSource", functools.partial(
        ChainSource, http=lambda url, timeout: responses[url]))
    err = _certify_data_error(capsys, "--source", "live", "--endpoint", "http://x")
    assert "Error(" not in err


@pytest.mark.parametrize("tip", [b"900000", b"1500099"])
def test_certify_live_tip_query_error_exit_2(capsys, monkeypatch, demo_tx_hex, tip):
    # An error page whose body happens to be digits is not a tip height;
    # b"1500099" would give the demo transaction 100 confirmations.
    responses = live_status_responses(
        {"confirmed": True, "block_height": 1_500_000, "block_time": 1553788013}, tip)
    responses["http://x/blocks/tip/height"] = (500, tip)
    responses[f"http://x/tx/{DEMO_TXID}/hex"] = (200, demo_tx_hex.encode())
    monkeypatch.setattr("eaward.chain.ChainSource", functools.partial(
        ChainSource, http=lambda url, timeout: responses[url]))
    err = _certify_data_error(capsys, "--source", "live", "--endpoint", "http://x")
    assert err == "error: tip height query returned HTTP 500\n"


def _spend_revealing(tmp_path, demo_tx_hex, redeem: bytes) -> tuple[str, str]:
    """A fixture root holding the demo spend with redeem as the final push
    of its scriptSig, confirmed as the demo is; and that spend's txid."""
    tx = parse_transaction(demo_tx_hex)
    pushes = tx.inputs[0].script_sig.pushes()
    script_sig = Script(b"".join(push_data(p) for p in (*pushes[:-1], redeem)))
    spend = rebuild(tx, inputs=(rebuild(tx.inputs[0], script_sig=script_sig),))
    txid = compute_txid(spend).hex()
    root = tmp_path / "chain"
    root.mkdir()
    (root / f"{txid}.hex").write_text(spend.to_hex())
    shutil.copy(CHAIN_DIR / f"{DEMO_TXID}.status", root / f"{txid}.status")
    return str(root), txid


def _certify_spend(capsys, root, txid):
    return run(capsys, "--fixture-root", root, "certify", AGREEMENT, txid,
               "--attestation", SIGNATURE_B64, "--certifier", "W")


def test_certify_revealed_p2pkh_script_exit_2(capsys, tmp_path, demo_tx_hex):
    root, txid = _spend_revealing(tmp_path, demo_tx_hex,
                                  bytes.fromhex(f"76a914{bytes(20).hex()}88ac"))
    assert _certify_spend(capsys, root, txid) == (
        2, "", "error: revealed script is p2pkh, not multisig\n")


@pytest.mark.parametrize("redeem", [
    # 1-of-16 over the three agreement keys and 13 more.
    "51" + "".join(f"21{k}" for k in (PK1_HEX, PK2_HEX, PK3_HEX))
    + "".join(f"2102{i:064x}" for i in range(13)) + "60ae",
    # The agreement's 2-of-3 with the third key in hybrid form.
    f"5221{PK1_HEX}21{PK2_HEX}4106{PK3_HEX[2:]}{'00' * 32}53ae",
], ids=["16_keys", "hybrid_key"])
def test_certify_refuses_any_other_multisig_exit_1(capsys, tmp_path, demo_tx_hex, redeem):
    # decode_script names these multisig, as Bitcoin Core does; only the
    # agreement's exact redeem script links a spend to it.
    root, txid = _spend_revealing(tmp_path, demo_tx_hex, bytes.fromhex(redeem))
    code, out, err = _certify_spend(capsys, root, txid)
    assert (code, out) == (1, "false\n")
    assert err.startswith("error: agreement does not match transaction: redeem script")


def _data_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    return out, err


@pytest.mark.parametrize("argv", [
    ("agreement", "validate", "{dir}"),
    ("escrow", "address", "{dir}"),
    ("msg", "sign", "{dir}", "m"),
    ("anchor", "create", "{dir}"),
    ("--fixture-root", str(CHAIN_DIR), "anchor", "verify", "{dir}", DEMO_TXID),
], ids=["agreement_validate", "escrow_address", "msg_sign", "anchor_create",
        "anchor_verify"])
def test_directory_as_file_exit_2(capsys, tmp_path, argv):
    _data_error(capsys, *(arg.format(dir=tmp_path) for arg in argv))


@pytest.mark.parametrize("argv,data", [
    (("agreement", "validate", "{file}"), b"\xff\xfe{\x80}"),
    (("escrow", "address", "{file}"), b"\xff\xfe{\x80}"),
    (("msg", "sign", "{file}", "m"), b"\xff\xfe{\x80}"),
    (("--fixture-root", str(CHAIN_DIR), "certify", "{file}", DEMO_TXID,
      "--attestation", SIGNATURE_B64, "--certifier", "W"), b"\xff\xfe{\x80}"),
    (("msg", "sign", "{file}", "m"), b"\xff\xfe"),
], ids=["agreement_validate", "escrow_address", "msg_sign", "certify", "msg_sign_bom_only"])
def test_non_utf8_input_file_exit_2(capsys, tmp_path, argv, data):
    path = tmp_path / "input"
    path.write_bytes(data)
    _, err = _data_error(capsys, *(arg.format(file=path) for arg in argv))
    assert str(path) in err


def test_tx_decode_non_utf8_fixture_exit_2(capsys, tmp_path):
    (tmp_path / f"{DEMO_TXID}.hex").write_bytes(b"\xff\xfe0200\x80")
    _data_error(capsys, "--fixture-root", str(tmp_path), "tx", "decode", DEMO_TXID)


@pytest.mark.parametrize("timeout", ["0", "-1", "nan"])
def test_live_bad_timeout_exit_2(capsys, timeout):
    # Refused while the source is built, before any request is sent.
    _, err = _data_error(capsys, "--source", "live", "--endpoint", "http://127.0.0.1:9",
                         "--timeout", timeout, "tx", "decode", DEMO_TXID)
    assert "timeout" in err


def _run_fresh(script: str, *flags: str) -> str:
    """stdout of `script` run in a new interpreter, with these interpreter
    flags, on this checkout's package."""
    src = str(Path(eaward.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, *flags, "-c", script], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module",
                         ["msgauth", "metadata", "escrow", "chain", "anchor", "attestation"])
def test_module_import_loads_only_its_layers(module):
    # Domain modules import only the primitives, and metadata and msgauth
    # need no tx; attestation sits above them.
    # eaward._ripemd160 is crypto's fallback where hashlib lacks RIPEMD-160.
    below = ("chain", "escrow", "metadata", "msgauth") if module == "attestation" else ()
    primitives = (("crypto", "errors") if module in ("metadata", "msgauth")
                  else ("crypto", "errors", "tx"))
    loaded = ["eaward", *(f"eaward.{m}" for m in (*primitives, module, *below))]
    script = (
        f"import sys, eaward.{module}\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] == 'eaward' and m != 'eaward._ripemd160'))\n"
    )
    assert _run_fresh(script) == f"{sorted(loaded)}\n"


@pytest.mark.parametrize("argv,code,modules,tables,stdlib", [
    # Verifying decodes the claimed address and encodes none.
    (["msg", "verify", ADDR_A, SIGNATURE_B64, ATTEST_MESSAGE], 0,
     ["crypto", "errors", "msgauth"],
     {"_g_table": 1, "_base58_pairs": 0}, []),
    # Only signing runs HMAC.
    (["msg", "sign", "env:CLI_TEST_KEY", ATTEST_MESSAGE], 0,
     ["crypto", "errors", "msgauth"],
     {"_g_table": 5, "_base58_pairs": 1}, ["hmac"]),
    # The demo transaction's one output is nulldata, which has no address.
    (["--fixture-root", str(CHAIN_DIR), "tx", "decode", DEMO_TXID], 0,
     ["chain", "crypto", "errors", "tx"],
     {"_g_table": 0, "_base58_pairs": 0}, ["datetime", "json", "pathlib"]),
    # The demo transaction carries the metadata line, not this document's digest.
    (["--fixture-root", str(CHAIN_DIR), "anchor", "verify", AWARD, DEMO_TXID], 1,
     ["anchor", "chain", "crypto", "errors", "tx"],
     {"_g_table": 0, "_base58_pairs": 0}, ["datetime", "pathlib"]),
    # An anchor that verifies reads its status, and with it a block time.
    (["--fixture-root", "{anchored}", "anchor", "verify", AWARD, "{anchor_txid}"], 0,
     ["anchor", "chain", "crypto", "errors", "tx"],
     {"_g_table": 0, "_base58_pairs": 0}, ["datetime", "json", "pathlib"]),
    (["--fixture-root", str(CHAIN_DIR), "certify", AGREEMENT, DEMO_TXID,
      "--attestation", SIGNATURE_B64, "--certifier", "W"], 0,
     ["attestation", "chain", "crypto", "errors", "escrow", "metadata", "msgauth", "tx"],
     {"_g_table": 1, "_base58_pairs": 1}, ["datetime", "json", "pathlib"]),
], ids=["msg_verify", "msg_sign", "tx_decode", "anchor_verify", "anchor_verify_confirmed",
        "certify"])
def test_command_loads_only_its_modules_and_tables(argv, code, modules, tables, stdlib,
                                                   tmp_path):
    # A fresh process imports the modules its command runs and builds a
    # fixed-base table only for the multiplication it does, and the base58
    # pair table only when it encodes an address. Its records are
    # tuples, so neither dataclasses nor the inspect module it imports loads,
    # and in fixture mode no HTTP, TLS or `requests` module loads either.
    # Of the probed standard modules, json loads only where JSON is read or
    # written, a canonical block time is read without strptime's _strptime
    # module, hmac loads only for signing, pathlib only where a path is read,
    # and typing and threading nowhere. -S keeps site out of the child, as a
    # site hook may import inspect, typing or pathlib.
    anchored = tmp_path / "chain"
    placeholders = {"anchored": str(anchored), "anchor_txid": _confirmed_anchor(anchored)}
    argv = [arg.format(**placeholders) for arg in argv]
    script = (
        "import contextlib, io, sys\n"
        "import eaward.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert eaward.cli.main({argv!r}) == {code}\n"
        "unwanted = sorted({'dataclasses', 'inspect', 'requests', 'urllib.request',\n"
        "                   'http.client', 'ssl'} & set(sys.modules))\n"
        "stdlib = sorted({'json', 'datetime', '_strptime', 'typing', 'pathlib', 'hmac',\n"
        "                 'threading'} & set(sys.modules))\n"
        "import json\n"
        "from eaward import crypto\n"
        "print(json.dumps([\n"
        "    sorted(m for m in sys.modules\n"
        "           if m.split('.')[0] == 'eaward' and m != 'eaward._ripemd160'),\n"
        "    {t.__name__: t.cache_info().currsize for t in (crypto._g_table,\n"
        "                                                   crypto._base58_pairs)},\n"
        "    unwanted, stdlib]))\n"
    )
    with mock.patch.dict(os.environ, {"CLI_TEST_KEY": sha256(b"env signer").hex()}):
        loaded, built, unwanted, loaded_stdlib = json.loads(_run_fresh(script, "-S"))
    assert loaded == sorted(["eaward", "eaward.cli", *(f"eaward.{m}" for m in modules)])
    assert built == tables
    assert unwanted == []
    assert loaded_stdlib == stdlib


@pytest.mark.parametrize("argv,absent", [
    (["msg", "verify", ADDR_A, SIGNATURE_B64, ATTEST_MESSAGE], ["hmac", "pathlib", "typing"]),
    (["msg", "sign", "env:CLI_TEST_KEY", ATTEST_MESSAGE], ["pathlib", "typing"]),
], ids=["msg_verify", "msg_sign"])
def test_msg_commands_load_no_typing_or_pathlib(argv, absent):
    # Only signing runs HMAC, and neither command reads a path. -S keeps
    # site out of the child, as a site hook may import typing or pathlib.
    script = (
        "import contextlib, io, sys\n"
        "import eaward.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert eaward.cli.main({argv!r}) == 0\n"
        f"print(sorted(set({absent!r}) & set(sys.modules)))\n"
    )
    with mock.patch.dict(os.environ, {"CLI_TEST_KEY": sha256(b"env signer").hex()}):
        assert _run_fresh(script, "-S") == "[]\n"


@pytest.mark.parametrize("argv", [["--version"], ["--help"], ["msg"]],
                         ids=["version", "help", "usage_error"])
def test_version_help_and_usage_errors_load_no_crypto(argv):
    # The package root serves TESTNET on first access, not at import.
    script = (
        "import contextlib, io, sys\n"
        "import eaward, eaward.cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):\n"
        "    try:\n"
        f"        eaward.cli.main({argv!r})\n"
        "    except SystemExit:\n"
        "        pass\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'eaward'))\n"
        "from eaward import TESTNET\n"
        "print(TESTNET is sys.modules['eaward.crypto'].TESTNET is eaward.TESTNET)\n"
    )
    assert _run_fresh(script) == "['eaward', 'eaward.cli', 'eaward.errors']\nTrue\n"


def _global_loads(code):
    """Names that code, and every function or comprehension nested in it,
    reads with LOAD_GLOBAL."""
    names = {ins.argval for ins in dis.get_instructions(code) if ins.opname == "LOAD_GLOBAL"}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            names |= _global_loads(const)
    return names


def test_every_global_a_cli_function_reads_exists():
    # Handlers import their modules in their own bodies, so a name left
    # behind by a missing import would only fail in a branch that runs it.
    functions = [f for f in vars(cli).values()
                 if isinstance(f, types.FunctionType) and f.__module__ == cli.__name__]
    assert len(functions) > 15
    missing = {(f.__name__, name) for f in functions for name in _global_loads(f.__code__)
               if name not in vars(cli) and not hasattr(builtins, name)}
    assert not missing


def _command_paths(parser, path=()):
    """Every command path of parser's tree: the top level, each group and
    each leaf."""
    yield list(path)
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _command_paths(child, (*path, name))


# A valid command line for every leaf, and one that names other groups
# among its arguments.
_VALID_COMMANDS = [
    ["agreement", "validate", "f"],
    ["escrow", "address", "p"],
    ["meta", "encode", "a", "--sig", "s"],
    ["meta", "decode", "00"],
    ["script", "decode", "00"],
    ["tx", "decode", "00"],
    ["tx", "broadcast", "00"],
    ["msg", "sign", "env:K", "m", "--uncompressed"],
    ["msg", "verify", "a", "s", "m"],
    ["anchor", "create", "f", "--store"],
    ["anchor", "verify", "f", "t"],
    ["--json", "--network", "mainnet", "certify", "a", "t", "--attestation", "s",
     "--certifier", "c", "--out", "o"],
    ["msg", "verify", "tx", "certify", "anchor"],
]


def _parse(parser, argv):
    """(stdout, stderr, exit code, parsed namespace) of parsing argv."""
    out, err = io.StringIO(), io.StringIO()
    code = namespace = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parser.parse_args(argv))
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code, namespace


def test_the_per_command_parser_answers_as_the_full_tree():
    # build_parser fills in only the groups argv names; every help text,
    # usage error and parse is the one the whole tree gives.
    full = cli.build_parser(list(cli._GROUPS))
    paths = list(_command_paths(full))
    assert len(paths) == 1 + len(cli._GROUPS) + 11
    cases = list(_VALID_COMMANDS)
    for path in paths:
        cases += [path, [*path, "--help"], [*path, "--no-such-option"],
                  ["--network", "moon", *path], [*path, "no-such-command"]]
    cases += [["--version"], ["--json", "--help"], ["--timeout", "soon", "msg"]]
    for argv in cases:
        answer = _parse(cli.build_parser(argv), argv)
        assert answer == _parse(full, argv), argv
        assert answer[2] in (None, 0, 2), argv


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["msg"])  # missing subcommand
    assert excinfo.value.code == 2


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0


# ---------------------------------------------------------------------------
# Refusals that print "false" (exit 1)
# ---------------------------------------------------------------------------

def _false_answer(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == "false\n"
    assert err.startswith("error: ") and "Traceback" not in err
    return err


def test_anchor_verify_no_nulldata_exit_1(capsys, tmp_path):
    plain = Transaction(
        2,
        (TxInput(Txid(bytes(32)), 0, Script(b"")),),
        (TxOutput(1000, Script(b"\x51")),),
    )
    fixture_root = tmp_path / "chain"
    run(capsys, "--fixture-root", str(fixture_root), "tx", "broadcast", plain.to_hex())
    err = _false_answer(capsys, "--fixture-root", str(fixture_root),
                        "anchor", "verify", AWARD, compute_txid(plain).hex())
    assert "no nulldata" in err


def _certify(*source_args, agreement=AGREEMENT):
    return (*source_args, "certify", agreement, DEMO_TXID,
            "--attestation", SIGNATURE_B64, "--certifier", "W")


def test_certify_seat_mismatch_exit_1(capsys, tmp_path):
    doc = json.loads((FIXTURES / "agreement.json").read_text())
    doc["seat"] = "Paris"
    path = tmp_path / "agreement.json"
    path.write_text(json.dumps(doc))
    err = _false_answer(capsys, *_certify("--fixture-root", str(CHAIN_DIR),
                                          agreement=str(path)))
    assert err == "error: agreement does not match transaction: seat\n"


def test_certify_display_name_mismatch_exit_1(capsys, tmp_path):
    agreement = _agreement_with_field(tmp_path, ("parties", 1, "displayName"), "Mallory")
    err = _false_answer(capsys, *_certify("--fixture-root", str(CHAIN_DIR),
                                          agreement=agreement))
    assert err == "error: agreement does not match transaction: claimant display name\n"


def test_certify_without_status_exit_1(capsys, tmp_path):
    shutil.copy(CHAIN_DIR / f"{DEMO_TXID}.hex", tmp_path)
    err = _false_answer(capsys, *_certify("--fixture-root", str(tmp_path)))
    assert "block time" in err


def _agreement_with_field(tmp_path, path, value) -> str:
    file = tmp_path / "agreement.json"
    shutil.copy(FIXTURES / "agreement.json", file)
    _replace_field(file, path, value)
    return str(file)


_GOLDEN_PUBKEYS = json.loads((FIXTURES / "agreement.json").read_text())["policy"]["pubkeys"]


@pytest.mark.parametrize("path,value", [
    (("policy", "m"), 1),
    (("policy", "pubkeys"), _GOLDEN_PUBKEYS[::-1]),
], ids=["quorum_1", "pubkeys_reversed"])
def test_certify_policy_other_than_revealed_script_exit_1(capsys, tmp_path, path, value):
    agreement = _agreement_with_field(tmp_path, path, value)
    err = _false_answer(capsys, *_certify("--fixture-root", str(CHAIN_DIR),
                                          agreement=agreement))
    assert "redeem script" in err


@pytest.mark.parametrize("edits,violation", [
    ({("seatJurisdiction",): "Mars", ("seat",): "Paris"}, "seat_jurisdiction must be one of"),
    ({("policy", "pubkeys", 2): PrivateKey.from_bytes(sha256(b"stranger")).public_key().hex()},
     "escrow policy keys do not correspond 1:1"),
], ids=["unknown_jurisdiction_and_wrong_seat", "policy_key_of_no_party"])
def test_certify_inconsistent_agreement_exit_2(capsys, tmp_path, edits, violation):
    """An agreement that contradicts itself is refused as invalid input (exit
    2) whatever else about it would fail against the transaction."""
    file = tmp_path / "agreement.json"
    shutil.copy(FIXTURES / "agreement.json", file)
    for path, value in edits.items():
        _replace_field(file, path, value)
    _, err = _data_error(capsys, *_certify("--fixture-root", str(CHAIN_DIR),
                                           agreement=str(file)))
    assert "agreement is invalid" in err and violation in err


def test_certify_invalid_agreement_exit_2(capsys, tmp_path):
    agreement = _agreement_with_field(tmp_path, ("seatJurisdiction",), "Mars")
    _, err = _data_error(capsys, *_certify("--fixture-root", str(CHAIN_DIR),
                                           agreement=agreement))
    assert "seat_jurisdiction must be one of" in err


def test_meta_encode_invalid_agreement_exit_2(capsys, tmp_path):
    agreement = _agreement_with_field(tmp_path, ("seatJurisdiction",), "Mars")
    out, err = _data_error(capsys, "meta", "encode", agreement, "--sig", SIGNATURE_B64)
    assert out == ""
    assert "agreement is invalid" in err and "seat_jurisdiction must be one of" in err


# ---------------------------------------------------------------------------
# JSON types in agreement and policy files
# ---------------------------------------------------------------------------

_MISSING = object()


def _replace_field(file, path, value):
    """Rewrite the JSON file with the field at `path` set to `value`, or
    deleted when `value` is _MISSING."""
    doc = json.loads(file.read_text())
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    if value is _MISSING:
        del target[last]
    else:
        target[last] = value
    file.write_text(json.dumps(doc))


_VALIDATE = ("agreement", "validate", "{agreement}")
_ENCODE = ("meta", "encode", "{agreement}", "--sig", SIGNATURE_B64)
_CERTIFY = _certify("--fixture-root", "{chain}", agreement="{agreement}")
_ESCROW = ("escrow", "address", "{policy}")


# math.inf is written as Infinity, which json reads back as it reads 1e999.
@pytest.mark.parametrize("name,path,value,argv", [
    ("agreement.json", ("reasonedAwardOptOut",), "false", _VALIDATE),
    ("agreement.json", ("reasonedAwardOptOut",), "false", _CERTIFY),
    ("agreement.json", ("parties", 0, "legalName"), None, _VALIDATE),
    ("agreement.json", ("parties", 0, "legalName"), None, _CERTIFY),
    ("agreement.json", ("parties", 0, "displayName"), 5, _VALIDATE),
    ("agreement.json", ("parties", 0, "displayName"), 5, _ENCODE),
    ("agreement.json", ("seat",), 5, _ENCODE),
    ("agreement.json", ("parties", 1, "address"), [ADDR_A], _VALIDATE),
    ("agreement.json", ("policy", "m"), math.inf, _VALIDATE),
    ("agreement.json", ("policy", "m"), math.inf, _ENCODE),
    ("agreement.json", ("policy", "m"), math.inf, _CERTIFY),
    ("agreement.json", ("policy", "m"), 2.7, _VALIDATE),
    ("agreement.json", ("policy", "m"), True, _VALIDATE),
    ("policy.json", ("m",), math.inf, _ESCROW),
    ("policy.json", ("m",), 2.7, _ESCROW),
    ("agreement.json", ("agreementTextHash",), 0, _CERTIFY),
    ("agreement.json", ("agreementTextHash",), False, _CERTIFY),
    ("agreement.json", ("agreementTextHash",), [], _VALIDATE),
    ("agreement.json", ("agreementTextHash",), {}, _CERTIFY),
    ("agreement.json", ("policy",), _MISSING, _VALIDATE),
    ("agreement.json", ("policy", "pubkeys"), _MISSING, _VALIDATE),
    ("agreement.json", ("parties", 2), 7, _VALIDATE),
    ("policy.json", ("network",), _MISSING, _ESCROW),
], ids=["opt_out_string_validate", "opt_out_string_certify", "legal_name_null_validate",
        "legal_name_null_certify",
        "display_name_int_validate", "display_name_int_encode", "seat_int_encode",
        "address_list_validate", "m_overflow_validate", "m_overflow_encode",
        "m_overflow_certify", "m_float_validate", "m_bool_validate",
        "m_overflow_escrow", "m_float_escrow", "text_hash_zero_certify",
        "text_hash_false_certify", "text_hash_list_validate", "text_hash_object_certify",
        "policy_missing_validate", "pubkeys_missing_validate", "party_int_validate",
        "network_missing_escrow"])
def test_wrong_json_type_exit_2(capsys, tmp_path, name, path, value, argv):
    file = tmp_path / name
    shutil.copy(FIXTURES / name, file)
    _replace_field(file, path, value)
    _, err = _data_error(capsys, *(a.format(agreement=file, policy=file, chain=CHAIN_DIR)
                                   for a in argv))
    field = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)[1:]
    expected = f"{field} is missing" if value is _MISSING else f"{field} must be of type"
    assert expected in err


def _fixture_copies(tmp_path) -> dict:
    """Copy the agreement, policy and chain fixtures into tmp_path; return
    the names _VALIDATE, _ENCODE, _CERTIFY and _ESCROW are formatted with."""
    for source in (FIXTURES / "agreement.json", FIXTURES / "policy.json",
                   CHAIN_DIR / f"{DEMO_TXID}.hex", CHAIN_DIR / f"{DEMO_TXID}.status"):
        shutil.copy(source, tmp_path)
    return {"agreement": tmp_path / "agreement.json", "policy": tmp_path / "policy.json",
            "chain": tmp_path}


_UTF16 = object()  # the genuine file, re-encoded as UTF-16


@pytest.mark.parametrize("data", [b"\xff\xfe{\x80}", _UTF16, b"{oops", b"[]", b"[" * 100_000],
                         ids=["non_utf8", "utf16", "unparseable", "not_object", "too_deep"])
@pytest.mark.parametrize("name,argv", [
    ("agreement.json", _VALIDATE),
    ("agreement.json", _CERTIFY),
    ("policy.json", _ESCROW),
    (f"{DEMO_TXID}.status", _CERTIFY),
], ids=["agreement_validate", "agreement_certify", "policy_escrow", "status_certify"])
def test_bad_json_document_names_its_file_exit_2(capsys, tmp_path, name, argv, data):
    copies = _fixture_copies(tmp_path)
    file = tmp_path / name
    file.write_bytes(file.read_text().encode("utf-16") if data is _UTF16 else data)
    _, err = _data_error(capsys, *(a.format(**copies) for a in argv))
    assert str(file) in err


@pytest.mark.parametrize("name,key,argv", [
    ("agreement.json", "seat", _VALIDATE),
    ("agreement.json", "seat", _CERTIFY),
    ("policy.json", "m", _ESCROW),
    (f"{DEMO_TXID}.status", "confirmations", _CERTIFY),
], ids=["agreement_validate", "agreement_certify", "policy_escrow", "status_certify"])
def test_duplicate_json_key_exit_2(capsys, tmp_path, name, key, argv):
    # Read with the last value winning, {"seat": "Paris", …, "seat": "London"}
    # would pass as London.
    copies = _fixture_copies(tmp_path)
    file = tmp_path / name
    file.write_text(f'{{"{key}": "Paris", ' + file.read_text().lstrip()[1:])
    _, err = _data_error(capsys, *(a.format(**copies) for a in argv))
    assert err == f"error: unparseable JSON in {file}: duplicate key '{key}'\n"


def test_non_utf8_message_exit_2(capsys, tmp_path):
    # How Python passes the argument bytes b"A\xff" to a program.
    message = b"A\xff".decode("utf-8", "surrogateescape")
    _data_error(capsys, "msg", "verify", ADDR_A, SIGNATURE_B64, message)
    key_file = tmp_path / "key.hex"
    key_file.write_text(sha256(b"cli signer").hex())
    _data_error(capsys, "msg", "sign", str(key_file), message)


# ---------------------------------------------------------------------------
# Exit-code contract for any value of any field
# ---------------------------------------------------------------------------

_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=4,
)

_PARTY_FIELDS = ("role", "legalName", "displayName", "address")
_FIELDS = (
    [("agreement.json", (key,)) for key in (
        "parties", "seat", "seatJurisdiction", "reasonedAwardOptOut", "policy",
        "agreementTextHash")]
    + [("agreement.json", ("parties", i)) for i in range(3)]
    + [("agreement.json", ("parties", i, key)) for i in range(3) for key in _PARTY_FIELDS]
    + [("agreement.json", ("policy", key)) for key in ("m", "pubkeys")]
    + [("agreement.json", ("policy", "pubkeys", 0))]
    + [("policy.json", (key,)) for key in ("m", "network", "pubkeys")]
    + [("policy.json", ("pubkeys", 1))]
    + [(f"{DEMO_TXID}.status", (key,)) for key in ("blockTime", "confirmations", "blockHash")]
)


def _main_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=120, deadline=None)
@given(field=st.sampled_from(_FIELDS), value=_JSON_VALUES)
@example(field=("agreement.json", ("policy", "m")), value=math.inf)
@example(field=(f"{DEMO_TXID}.status", ("confirmations",)), value=math.inf)
def test_any_field_value_keeps_exit_contract(field, value):
    name, path = field
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for source in (FIXTURES / "agreement.json", FIXTURES / "policy.json",
                       CHAIN_DIR / f"{DEMO_TXID}.hex", CHAIN_DIR / f"{DEMO_TXID}.status"):
            shutil.copy(source, root)
        _replace_field(root / name, path, value)

        for command in (_VALIDATE, _ENCODE, _ESCROW, _CERTIFY):
            argv = [a.format(agreement=root / "agreement.json", policy=root / "policy.json",
                             chain=root) for a in command]
            code, out, err = _main_quiet(argv)
            assert code in (0, 1, 2), argv
            if code == 1:
                assert out == "false\n" or (argv[0] == "agreement" and
                                            out.endswith("invalid\n")), (argv, out)
            if code == 2:
                assert err.startswith("error: "), (argv, err)


@settings(max_examples=120, deadline=None)
@given(message=st.text(st.characters(exclude_categories=())))
@example(message=ATTEST_MESSAGE)
@example(message="A\udcff")
def test_any_message_keeps_exit_contract(message):
    code, out, err = _main_quiet(["msg", "verify", ADDR_A, SIGNATURE_B64, "--", message])
    assert code in (0, 1, 2)
    assert (code == 0) == (message == ATTEST_MESSAGE)
    if code == 1:
        assert out == "false\n"
    if code == 2:
        assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# Exit-code contract for any fixture or explorer answer
# ---------------------------------------------------------------------------

_DEMO_HEX = (CHAIN_DIR / f"{DEMO_TXID}.hex").read_bytes()
_DEMO_RAW = bytes.fromhex(_DEMO_HEX.decode())


def _hashes_to_demo_txid(served: bytes) -> bool:
    """Whether the served hex text, less surrounding whitespace, decodes to
    bytes whose double SHA-256 is the requested txid (computed here without
    eaward)."""
    try:
        raw = bytes.fromhex(served.decode("ascii").strip())
    except ValueError:
        return False
    return hashlib.sha256(hashlib.sha256(raw).digest()).digest()[::-1].hex() == DEMO_TXID


def _flip(data: bytes, index: int, mask: int) -> bytes:
    index %= len(data)
    return data[:index] + bytes([data[index] ^ mask]) + data[index + 1:]


# The demo fixture truncated, with one byte flipped in its raw bytes or in
# its hex text, with junk inserted, extended as text or as raw bytes, or
# replaced by arbitrary bytes.
_MUTATED_HEX = st.one_of(
    st.integers(0, len(_DEMO_HEX)).map(lambda i: _DEMO_HEX[:i]),
    st.builds(lambda i, m: _flip(_DEMO_RAW, i, m).hex().encode(),
              st.integers(0, len(_DEMO_RAW) - 1), st.integers(1, 255)),
    st.builds(lambda i, m: _flip(_DEMO_HEX, i, m),
              st.integers(0, len(_DEMO_HEX) - 1), st.integers(1, 255)),
    st.builds(lambda i, junk: _DEMO_HEX[:i] + junk + _DEMO_HEX[i:],
              st.integers(0, len(_DEMO_HEX)), st.binary(min_size=1, max_size=4)),
    st.builds(lambda extra: _DEMO_HEX.strip() + extra, st.binary(max_size=8)),
    st.builds(lambda extra: (_DEMO_RAW + extra).hex().encode(), st.binary(min_size=1, max_size=8)),
    st.binary(max_size=64),
)

# The commands that fetch the demo transaction from a source.
_FETCHING = (("tx", "decode", DEMO_TXID), _certify())


@settings(max_examples=150, deadline=None)
@given(served=_MUTATED_HEX)
@example(served=_DEMO_HEX)
@example(served=SUPERFLUOUS_DEMO_HEX.encode())
@example(served=_DEMO_HEX.strip() + b"00")
@example(served=_DEMO_HEX[:-3])
@example(served=b"")
@example(served=(_DEMO_RAW[:41] + b"\xff" + (2**63).to_bytes(8, "little")).hex().encode())
def test_any_hex_fixture_keeps_exit_contract(served):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / f"{DEMO_TXID}.hex").write_bytes(served)
        shutil.copy(CHAIN_DIR / f"{DEMO_TXID}.status", root)
        for command in _FETCHING:
            _assert_exit_contract(["--fixture-root", str(root), *command],
                                  served_ok=_hashes_to_demo_txid(served))


def _assert_exit_contract(argv, served_ok):
    code, out, err = _main_quiet(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        assert served_ok, argv
    if code == 1:
        assert out == "false\n", (argv, out)
    if code == 2:
        assert err.startswith("error: "), (argv, err)


_GENUINE_STATUS = {"confirmed": True, "block_height": 1_500_000, "block_time": 1553788013,
                   "block_hash": "aa" * 32}
_HTTP_CODES = st.sampled_from([200, 200, 200, 404, 500]) | st.integers(100, 599)
_STATUS_DOCS = st.fixed_dictionaries({}, optional={
    key: st.just(value) | _JSON_VALUES for key, value in _GENUINE_STATUS.items()})
_STATUS_BODIES = st.one_of(st.just(json.dumps(_GENUINE_STATUS).encode()),
                           _STATUS_DOCS.map(lambda doc: json.dumps(doc).encode()),
                           _JSON_VALUES.map(lambda value: json.dumps(value).encode()),
                           st.binary(max_size=32))
_TIP_BODIES = st.one_of(st.just(b"1500099"), st.integers().map(lambda i: str(i).encode()),
                        st.binary(max_size=16))


@settings(max_examples=150, deadline=None)
@given(hex_answer=st.tuples(_HTTP_CODES, st.just(_DEMO_HEX) | _MUTATED_HEX),
       status_answer=st.tuples(_HTTP_CODES, _STATUS_BODIES),
       tip_answer=st.tuples(_HTTP_CODES, _TIP_BODIES))
@example(hex_answer=(200, _DEMO_HEX),
         status_answer=(200, json.dumps(_GENUINE_STATUS).encode()),
         tip_answer=(200, b"1500099"))
@example(hex_answer=(200, _DEMO_HEX),
         status_answer=(200, json.dumps({**_GENUINE_STATUS, "block_time": -10**12}).encode()),
         tip_answer=(200, b"1500099"))
def test_any_explorer_answer_keeps_exit_contract(hex_answer, status_answer, tip_answer):
    responses = {f"http://x/tx/{DEMO_TXID}/hex": hex_answer,
                 f"http://x/tx/{DEMO_TXID}/status": status_answer,
                 "http://x/blocks/tip/height": tip_answer}
    live = functools.partial(ChainSource, http=lambda url, timeout: responses[url])
    status, served = hex_answer
    with mock.patch("eaward.chain.ChainSource", live):
        for command in _FETCHING:
            _assert_exit_contract(["--source", "live", "--endpoint", "http://x", *command],
                                  served_ok=status == 200 and _hashes_to_demo_txid(served))


# ---------------------------------------------------------------------------
# Live mode against a loopback explorer: the real transport, no egress
# ---------------------------------------------------------------------------

_TX_DECODE = ("tx", "decode", DEMO_TXID)
_HEX_PATH = f"/tx/{DEMO_TXID}/hex"


def _live(explorer, *argv):
    return ("--source", "live", "--endpoint", explorer.url, *argv)


def test_live_certify_needs_no_requests(capsys, explorer):
    # `import requests` fails in this fresh process, as where it is not installed.
    argv = ["--json", *_certify("--source", "live", "--endpoint", explorer.url)]
    live = json.loads(_run_fresh("import sys\nsys.modules['requests'] = None\n"
                                 f"import eaward.cli\nsys.exit(eaward.cli.main({argv!r}))\n"))
    code, out, _ = run(capsys, "--json", *_certify("--fixture-root", str(CHAIN_DIR)))
    fixture = json.loads(out)
    assert code == 0
    del live["issuedAt"], fixture["issuedAt"]
    assert live == fixture
    # The human certificate states no issue time, so it matches byte for byte.
    human = run(capsys, *_certify("--fixture-root", str(CHAIN_DIR)))
    assert human[0] == 0
    assert run(capsys, *_certify("--source", "live", "--endpoint", explorer.url)) == human
    assert [(method, path) for method, path, _, _ in explorer.received] == 2 * [
        ("GET", _HEX_PATH), ("GET", f"/tx/{DEMO_TXID}/status"), ("GET", "/blocks/tip/height")]


def test_live_broadcast_posts_exactly_the_hex(capsys, explorer, demo_tx_hex):
    explorer.routes["/tx"] = (200, DEMO_TXID.encode())
    code, out, _ = run(capsys, *_live(explorer, "tx", "broadcast", demo_tx_hex))
    assert (code, out) == (0, f"{DEMO_TXID}\n")
    [(method, path, _, body)] = explorer.received
    assert (method, path, body) == ("POST", "/tx", demo_tx_hex.encode())


def _proxy_environment(monkeypatch, **names):
    # urllib reads either spelling of each name, and ignores HTTP_PROXY in a
    # CGI process (REQUEST_METHOD set).
    for name in ("http_proxy", "HTTP_PROXY", "no_proxy", "NO_PROXY", "REQUEST_METHOD"):
        monkeypatch.delenv(name, raising=False)
    for name, value in names.items():
        monkeypatch.setenv(name, value)


def test_live_request_goes_through_http_proxy(capsys, monkeypatch, explorer):
    _proxy_environment(monkeypatch, HTTP_PROXY=explorer.url)
    url = f"http://explorer.invalid{_HEX_PATH}"
    explorer.routes[url] = explorer.routes[_HEX_PATH]
    fixture = run(capsys, "--fixture-root", str(CHAIN_DIR), *_TX_DECODE)
    argv = ("--source", "live", "--endpoint", "http://explorer.invalid", *_TX_DECODE)
    assert run(capsys, *argv) == fixture
    # A proxy is sent the absolute URI in the request line.
    assert [(method, path) for method, path, _, _ in explorer.received] == [("GET", url)]


def test_live_request_bypasses_proxy_for_no_proxy_host(capsys, monkeypatch, explorer):
    _proxy_environment(monkeypatch, HTTP_PROXY="http://127.0.0.1:9", NO_PROXY="127.0.0.1")
    fixture = run(capsys, "--fixture-root", str(CHAIN_DIR), *_TX_DECODE)
    assert run(capsys, *_live(explorer, *_TX_DECODE)) == fixture
    assert [path for _, path, _, _ in explorer.received] == [_HEX_PATH]


def test_live_redirect_is_followed(capsys, explorer):
    explorer.routes["/moved"] = explorer.routes[_HEX_PATH]
    explorer.routes[_HEX_PATH] = (302, b"", {"Location": "/moved"})
    fixture = run(capsys, "--fixture-root", str(CHAIN_DIR), *_TX_DECODE)
    assert run(capsys, *_live(explorer, *_TX_DECODE)) == fixture
    assert [path for _, path, _, _ in explorer.received] == [_HEX_PATH, "/moved"]


@pytest.mark.parametrize("scheme", ["ftp", "file"])
def test_live_redirect_off_http_exit_2(capsys, explorer, tmp_path, scheme):
    # Not even a local file holding the genuine hex is read through a redirect.
    local = tmp_path / "hex"
    local.write_bytes(explorer.routes[_HEX_PATH][1])
    location = local.as_uri() if scheme == "file" else "ftp://127.0.0.1/hex"
    explorer.routes[_HEX_PATH] = (302, b"", {"Location": location})
    _, err = _data_error(capsys, *_live(explorer, *_TX_DECODE))
    assert err == (f"error: GET {explorer.url}{_HEX_PATH}: "
                   f"Found - Redirection to url '{location}' is not allowed\n")


def test_live_ftp_endpoint_exit_2(capsys):
    _, err = _data_error(capsys, "--source", "live", "--endpoint", "ftp://127.0.0.1",
                         *_TX_DECODE)
    assert err == f"error: GET ftp://127.0.0.1{_HEX_PATH}: unknown url type: ftp\n"


@pytest.mark.parametrize("status,message", [
    (404, f"source has no transaction {DEMO_TXID}"),
    (500, "source returned HTTP 500"),
])
def test_live_error_status_message(capsys, explorer, status, message):
    explorer.routes[_HEX_PATH] = (status, b"<html>error</html>")
    _, err = _data_error(capsys, *_live(explorer, *_TX_DECODE))
    assert err == f"error: {message}\n"


def test_live_answer_over_cap_exit_2(capsys, explorer):
    explorer.routes[_HEX_PATH] = (200, b"0" * (MAX_BODY + 1))
    _, err = _data_error(capsys, *_live(explorer, *_TX_DECODE))
    assert err == f"error: GET {explorer.url}{_HEX_PATH}: answer exceeds {MAX_BODY} bytes\n"


def test_live_drip_fed_answer_ends_at_the_deadline(capsys, explorer):
    def drip(handler):
        handler.send_response(200)
        handler.end_headers()
        with contextlib.suppress(OSError):  # until the client hangs up
            for _ in range(100):
                handler.wfile.write(b"0")
                time.sleep(0.05)

    explorer.routes[_HEX_PATH] = drip
    start = time.monotonic()
    _, err = _data_error(capsys, "--timeout", "0.5", *_live(explorer, *_TX_DECODE))
    assert time.monotonic() - start < 2
    assert err == f"error: GET {explorer.url}{_HEX_PATH}: no complete answer within 0.5 s\n"


def test_live_drip_fed_headers_end_at_the_deadline(capsys, explorer):
    def drip(handler):
        handler.wfile.write(b"HTTP/1.1 200 OK\r\nX-Slow: ")
        with contextlib.suppress(OSError):  # until the client hangs up
            for _ in range(100):
                handler.wfile.write(b"a")
                time.sleep(0.05)

    explorer.routes[_HEX_PATH] = drip
    start = time.monotonic()
    _, err = _data_error(capsys, "--timeout", "0.5", *_live(explorer, *_TX_DECODE))
    assert time.monotonic() - start < 2
    assert err == f"error: GET {explorer.url}{_HEX_PATH}: no complete answer within 0.5 s\n"


def test_live_status_with_duplicate_key_exit_2(capsys, explorer):
    path = f"/tx/{DEMO_TXID}/status"
    status, body = explorer.routes[path]
    explorer.routes[path] = (status, b'{"block_height": 1, ' + body[1:])
    err = _certify_data_error(capsys, *_live(explorer))
    assert err == (f"error: unparseable JSON in {explorer.url}{path}: "
                   "duplicate key 'block_height'\n")
