"""Wallet-controlled message signatures: sign and verify.

The digest preamble and header-byte convention follow the de-facto signed
message format used by node/wallet console tooling, pinned here so the
golden vectors reproduce. A malformed signature raises; a well-formed
signature that simply does not match returns False. Evidentiary reports
need to tell "unverifiable input" apart from "verified not-matching".
"""

from __future__ import annotations

import base64
from collections import namedtuple

from .crypto import (
    Address,
    Network,
    PrivateKey,
    RecoverableSig,
    RecoveryFailed,
    hash160,
    hash256,
    ecdsa_recover,
    ecdsa_sign_recoverable,
    p2pkh_network,
    pubkey_to_address,
    write_compact_size,
)
from .errors import EawardError

MESSAGE_PREFIX = b"\x18Bitcoin Signed Message:\n"


class MalformedSignature(EawardError):
    pass


class SignedMessage(namedtuple("SignedMessage", "address message signature_b64")):
    __slots__ = ()


def message_digest(message: str) -> bytes:
    body = message.encode("utf-8")
    return hash256(MESSAGE_PREFIX + write_compact_size(len(body)) + body)


def decode_signature(signature_b64: str) -> RecoverableSig:
    """The recoverable signature in base64 text; MalformedSignature if none is."""
    try:
        return RecoverableSig.from_bytes(base64.b64decode(signature_b64, validate=True))
    except (ValueError, RecoveryFailed) as exc:
        raise MalformedSignature(f"not a base64 recoverable signature: {exc}") from exc


def sign_message(key: PrivateKey, message: str, net: Network) -> SignedMessage:
    sig = ecdsa_sign_recoverable(key, message_digest(message))
    address = pubkey_to_address(key.public_key(), net, key.compressed)
    return SignedMessage(address, message, base64.b64encode(sig.to_bytes()).decode("ascii"))


def verify_message(address: Address | str, signature_b64: str, message: str) -> bool:
    """True iff the recovered key's P2PKH address equals the claimed one.

    Compression follows the signature header; the network version comes from
    the claimed address itself, and an address that is not P2PKH is False.
    """
    if isinstance(address, str):
        address = Address.from_text(address)
    sig = decode_signature(signature_b64)
    # A message signature proves control of a P2PKH key only (BIP-137).
    if p2pkh_network(address) is None:
        return False
    try:
        pub = ecdsa_recover(sig, message_digest(message))
    except RecoveryFailed:
        return False
    return hash160(pub.serialize(sig.compressed)) == address.payload
