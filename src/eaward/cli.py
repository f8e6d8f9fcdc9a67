"""Command surface for the escrow e-award workflow.

Exit codes triage outcomes for shell pipelines: 0 success, 1 a check that
ran and came back negative ("false"), 2 usage or data errors. Verification
subcommands print exactly "true" or "false" on stdout.

Private keys are never taken as positional arguments; `msg sign` reads them
from a file path or an env:NAME reference.

Each command is a process of its own, so start-up is most of its time: the
handlers import the modules they run in their own bodies, and a process
loads only what its command needs. The parser is built per command too:
every group's parser is made, but only the group the command line names
gets its subcommands and arguments. json is imported only by the output
paths that write it, and pathlib only where a path is built.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .errors import EawardError, NotFound, Refusal, parse_hex

TYPE_CHECKING = False  # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from pathlib import Path

    from .chain import ChainSource
    from .crypto import Network, PrivateKey

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_ERROR = 2


def _json_text(doc: dict) -> str:
    import json  # here, so that commands that write no JSON never load it

    return json.dumps(doc, indent=2)


def _emit(args, doc: dict, human_lines: list[str]):
    if args.json:
        print(_json_text(doc))
    else:
        for line in human_lines:
            print(line)


def _network(args, fallback: Network | None = None) -> Network:
    from .crypto import network_by_name

    if args.network:
        return network_by_name(args.network)
    return fallback or network_by_name("testnet")


def _source(args) -> ChainSource:
    from pathlib import Path

    from .chain import ChainSource

    mode = args.source
    endpoint = args.endpoint or os.environ.get("EAWARD_ENDPOINT")
    fixture_root = args.fixture_root or os.environ.get("EAWARD_FIXTURE_ROOT")
    if mode == "live":
        if not endpoint:
            raise EawardError("live source needs --endpoint or EAWARD_ENDPOINT")
        return ChainSource("live", endpoint=endpoint, timeout=args.timeout)
    if not fixture_root:
        raise EawardError("fixture source needs --fixture-root or EAWARD_FIXTURE_ROOT")
    return ChainSource("fixture", fixture_root=Path(fixture_root))


def _store_root(args) -> Path:
    from pathlib import Path

    root = args.store_root or os.environ.get("EAWARD_STORE_ROOT")
    if not root:
        raise EawardError("object store needs --store-root or EAWARD_STORE_ROOT")
    return Path(root)


def _read_private_key(ref: str) -> PrivateKey:
    from .crypto import PrivateKey

    if ref.startswith("env:"):
        name = ref[4:]
        text = os.environ.get(name)
        if text is None:
            raise EawardError(f"environment variable {name} is not set")
        return PrivateKey.from_bytes(parse_hex(text))
    from pathlib import Path

    try:
        return PrivateKey.from_bytes(parse_hex(Path(ref).read_text()))
    except (FileNotFoundError, NotADirectoryError):
        raise EawardError(f"key file {ref} does not exist") from None
    except (OSError, UnicodeError, EawardError) as exc:
        raise EawardError(f"key file {ref}: {exc}") from exc


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------

def cmd_agreement_validate(args) -> int:
    from .attestation import load_agreement, validate_agreement

    agreement = load_agreement(args.file)
    review = validate_agreement(agreement)
    doc = {"ok": review.ok,
           "violations": list(review.violations),
           "warnings": list(review.warnings)}
    lines = [f"violation: {v}" for v in review.violations]
    lines += [f"warning: {w}" for w in review.warnings]
    lines.append("ok" if review.ok else "invalid")
    _emit(args, doc, lines)
    return EXIT_OK if review.ok else EXIT_FALSE


def cmd_escrow_address(args) -> int:
    from .escrow import build_redeem_script, load_policy, p2sh_address

    policy, file_net = load_policy(args.policy_file)
    net = _network(args, fallback=file_net)
    redeem = build_redeem_script(policy)
    address = p2sh_address(redeem, net)
    doc = {"address": address.text, "redeemScript": redeem.hex(),
           "m": policy.m, "n": policy.n, "network": net.name}
    _emit(args, doc, [f"address: {address.text}", f"redeemScript: {redeem.hex()}"])
    return EXIT_OK


def cmd_meta_encode(args) -> int:
    from .attestation import load_agreement, metadata_for_agreement
    from .metadata import attest_message, encode_metadata

    agreement = load_agreement(args.agreement)
    meta = metadata_for_agreement(agreement, args.sig)
    payload = encode_metadata(meta)
    doc = {"text": meta.text(), "payloadHex": payload.hex(),
           "attestMessage": attest_message(meta),
           "payloadBytes": len(payload)}
    _emit(args, doc, [payload.hex(), meta.text()])
    return EXIT_OK


def cmd_meta_decode(args) -> int:
    from .metadata import decode_metadata

    meta = decode_metadata(parse_hex(args.hex))
    doc = {
        "participants": [
            {"role": p.role.value, "name": p.display_name, "suffix": p.suffix}
            for p in meta.participants
        ],
        "seat": meta.seat,
        "sigFragment": meta.sig_fragment,
        "text": meta.text(),
    }
    lines = [p.token() for p in meta.participants]
    lines += [f"seat: {meta.seat}", f"fragment: {meta.sig_fragment}"]
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_script_decode(args) -> int:
    from .escrow import p2sh_address
    from .tx import decode_script

    net = _network(args)
    decoded = decode_script(args.hex, net)
    doc = decoded.to_report()
    doc["p2sh"] = p2sh_address(decoded.script, net).text
    if decoded.payload is not None:
        doc["payloadHex"] = decoded.payload.hex()
    print(_json_text(doc))
    return EXIT_OK


def cmd_tx_decode(args) -> int:
    from .chain import get_transaction
    from .tx import Txid, parse_transaction, transaction_report

    net = _network(args)
    text = args.tx.strip()
    if len(text) == 64:
        tx = get_transaction(_source(args), Txid.from_hex(text))
    else:
        tx = parse_transaction(text)
    print(_json_text(transaction_report(tx, net)))
    return EXIT_OK


def cmd_tx_broadcast(args) -> int:
    from .chain import broadcast

    txid = broadcast(_source(args), args.hex)
    _emit(args, {"txid": txid.hex()}, [txid.hex()])
    return EXIT_OK


def cmd_msg_sign(args) -> int:
    from .crypto import PrivateKey
    from .msgauth import sign_message

    key = _read_private_key(args.key_ref)
    if args.uncompressed:
        key = PrivateKey(key.scalar, compressed=False)
    signed = sign_message(key, args.message, _network(args))
    doc = {"address": signed.address.text, "signature": signed.signature_b64,
           "message": signed.message}
    _emit(args, doc, [signed.signature_b64])
    return EXIT_OK


def cmd_msg_verify(args) -> int:
    from .msgauth import verify_message

    ok = verify_message(args.address, args.signature, args.message)
    print("true" if ok else "false")
    return EXIT_OK if ok else EXIT_FALSE


def cmd_anchor_create(args) -> int:
    from .anchor import AwardDocument, ObjectStore, build_anchor_script, checksum_file

    # A stored document's content id is its sha256, the digest anchored.
    if args.store:
        doc_file = AwardDocument.from_file(args.file)
        digest = ObjectStore(_store_root(args)).store(doc_file.data)
    else:
        digest = checksum_file(args.file)
    script = build_anchor_script(digest)
    doc = {"docHash": digest.hex(), "opReturnScript": script.hex()}
    lines = [f"docHash: {digest.hex()}", f"opReturnScript: {script.hex()}"]
    if args.store:
        doc["contentId"] = digest.hex()
        lines.append(f"contentId: {digest.hex()}")
    _emit(args, doc, lines)
    return EXIT_OK


def cmd_anchor_verify(args) -> int:
    from .anchor import checksum_file, verify_anchor_digest
    from .chain import format_time, get_transaction, get_tx_status
    from .tx import Txid

    doc_hash = checksum_file(args.file)
    source = _source(args)
    proof = verify_anchor_digest(doc_hash, get_transaction(source, Txid.from_hex(args.txid)))
    doc = proof.to_report()
    try:
        status = get_tx_status(source, proof.txid)
    except NotFound:
        pass
    else:
        if status.block_time is not None:
            doc["blockTime"] = format_time(status.block_time)
        doc["confirmations"] = status.confirmations
    _emit(args, doc, [f"{k}: {v}" for k, v in doc.items()])
    return EXIT_OK


def cmd_certify(args) -> int:
    from pathlib import Path

    from .attestation import extract_metadata, issue_certificate, load_agreement
    from .chain import get_transaction, get_tx_status
    from .metadata import Role, attest_message
    from .msgauth import SignedMessage
    from .tx import Txid

    agreement = load_agreement(args.agreement)
    source = _source(args)
    txid = Txid.from_hex(args.txid)
    tx = get_transaction(source, txid)
    status = get_tx_status(source, txid)
    meta = extract_metadata(tx)
    arbitrator = agreement.party(Role.ARBITRATOR)
    attestation = SignedMessage(
        address=arbitrator.address,
        message=attest_message(meta),
        signature_b64=args.attestation,
    )
    certificate = issue_certificate(
        agreement, tx, status, [attestation], args.certifier)
    report = certificate.to_report()
    if args.out:
        Path(args.out).write_text(_json_text(report) + "\n")
    _emit(args, report, [certificate.statement])
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _agreement_commands(p):
    psub = p.add_subparsers(dest="subcommand", required=True)
    v = psub.add_parser("validate", help="check an agreement file")
    v.add_argument("file")
    v.set_defaults(func=cmd_agreement_validate)


def _escrow_commands(p):
    psub = p.add_subparsers(dest="subcommand", required=True)
    a = psub.add_parser("address", help="P2SH deposit address for a policy file")
    a.add_argument("policy_file")
    a.set_defaults(func=cmd_escrow_address)


def _meta_commands(p):
    psub = p.add_subparsers(dest="subcommand", required=True)
    e = psub.add_parser("encode", help="build the metadata payload for an agreement")
    e.add_argument("agreement")
    e.add_argument("--sig", required=True,
                   help="full 88-character base64 attestation signature")
    e.set_defaults(func=cmd_meta_encode)
    d = psub.add_parser("decode", help="decode a metadata payload from hex")
    d.add_argument("hex")
    d.set_defaults(func=cmd_meta_decode)


def _script_commands(p):
    psub = p.add_subparsers(dest="subcommand", required=True)
    d = psub.add_parser("decode", help="classify script hex")
    d.add_argument("hex")
    d.set_defaults(func=cmd_script_decode)


def _tx_commands(p):
    psub = p.add_subparsers(dest="subcommand", required=True)
    d = psub.add_parser("decode", help="decode raw hex or fetch+decode a txid")
    d.add_argument("tx", metavar="hex|txid")
    d.set_defaults(func=cmd_tx_decode)
    b = psub.add_parser("broadcast", help="submit raw transaction hex")
    b.add_argument("hex")
    b.set_defaults(func=cmd_tx_broadcast)


def _msg_commands(p):
    psub = p.add_subparsers(dest="subcommand", required=True)
    s = psub.add_parser("sign", help="sign a message with a wallet key")
    s.add_argument("key_ref", metavar="key-file|env:NAME")
    s.add_argument("message")
    s.add_argument("--uncompressed", action="store_true",
                   help="derive the legacy uncompressed-key address")
    s.set_defaults(func=cmd_msg_sign)
    v = psub.add_parser("verify", help="verify an address/signature/message triple")
    v.add_argument("address")
    v.add_argument("signature")
    v.add_argument("message")
    v.set_defaults(func=cmd_msg_verify)


def _anchor_commands(p):
    psub = p.add_subparsers(dest="subcommand", required=True)
    c = psub.add_parser("create", help="digest a document and build its carrier script")
    c.add_argument("file")
    c.add_argument("--store", action="store_true",
                   help="also store the document in the object store")
    c.set_defaults(func=cmd_anchor_create)
    v = psub.add_parser("verify", help="check a transaction anchors a document")
    v.add_argument("file")
    v.add_argument("txid")
    v.set_defaults(func=cmd_anchor_verify)


def _certify_arguments(p):
    p.add_argument("agreement")
    p.add_argument("txid")
    p.add_argument("--attestation", required=True,
                   help="arbitrator's full base64 message signature")
    p.add_argument("--certifier", required=True)
    p.add_argument("--out", help="also write the certificate JSON to a file")
    p.set_defaults(func=cmd_certify)


# Each group: its help line, and what fills its parser in.
_GROUPS = {
    "agreement": ("arbitration agreement operations", _agreement_commands),
    "escrow": ("escrow script and address derivation", _escrow_commands),
    "meta": ("award metadata codec", _meta_commands),
    "script": ("script classification", _script_commands),
    "tx": ("transaction operations", _tx_commands),
    "msg": ("wallet message attestation", _msg_commands),
    "anchor": ("award document hash anchoring", _anchor_commands),
    "certify": ("issue an authentication certificate", _certify_arguments),
}


def build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv. The top level and every group's parser are
    built, but a group's subcommands and arguments only when its name is an
    element of argv. argparse enters a group only by its exact name, and
    only the group's own help and errors show what fills it, so the parser
    answers argv as the full tree does."""
    parser = argparse.ArgumentParser(
        prog="eaward",
        description="Multisig escrow e-award toolkit",
    )
    parser.add_argument("--version", action="version", version=f"eaward {__version__}")
    parser.add_argument("--network", choices=["mainnet", "testnet"],
                        help="address network (default: testnet or policy file value)")
    parser.add_argument("--source", choices=["live", "fixture"], default="fixture",
                        help="where transactions come from (default: fixture)")
    parser.add_argument("--endpoint", help="explorer REST endpoint for --source live")
    parser.add_argument("--fixture-root", help="directory of <txid>.hex/.status files")
    parser.add_argument("--store-root", help="content-addressed object store directory")
    parser.add_argument("--timeout", type=float, default=10.0,
                        help="live request timeout in seconds (default 10)")
    parser.add_argument("--json", action="store_true", help="machine-readable output")

    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, fill) in _GROUPS.items():
        group = sub.add_parser(name, help=help_text)
        if name in argv:
            fill(group)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser(argv).parse_args(argv)
    try:
        return args.func(args)
    except Refusal as exc:
        print("false")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FALSE
    except (EawardError, OSError, UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
