"""Multisig escrow e-award toolkit.

Builds M-of-N escrow records, encodes and decodes the on-chain award
metadata line, signs and verifies wallet attestations, anchors award
documents and assembles authentication certificates. Each job lives in its
own module (`eaward.escrow`, `eaward.metadata`, `eaward.msgauth`,
`eaward.anchor`, `eaward.attestation`, ...); import from there, so a caller
loads only the modules it uses.
"""

from .errors import EawardError

__version__ = "0.1.0"


def __getattr__(name):
    # eaward.TESTNET loads crypto on first use, so `--version`, `--help`
    # and usage errors do not.
    if name == "TESTNET":
        from .crypto import TESTNET
        return TESTNET
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
