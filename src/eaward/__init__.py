"""Multisig escrow e-award toolkit.

Builds M-of-N escrow records, encodes and decodes the on-chain award
metadata line, signs and verifies wallet attestations, anchors award
documents and assembles authentication certificates. Each job lives in its
own module (`eaward.escrow`, `eaward.metadata`, `eaward.msgauth`,
`eaward.anchor`, `eaward.attestation`, ...); import from there, so a caller
loads only the modules it uses.
"""

from .errors import EawardError
from .crypto import TESTNET

__version__ = "0.1.0"
