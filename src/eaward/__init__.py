"""Multisig escrow e-award toolkit.

Builds M-of-N escrow records, encodes and decodes the on-chain award
metadata line, signs and verifies wallet attestations, anchors award
documents and assembles authentication certificates. Each job lives in its
own module (`eaward.escrow`, `eaward.metadata`, `eaward.msgauth`,
`eaward.anchor`, `eaward.attestation`, ...); import from there, so a caller
loads only the modules it uses.

The modules form three layers, and each imports only from the layers below
it:

- primitives: `errors` (the exception roots, and the one reader of each
  outside format), `crypto` (digests, base58check, secp256k1, keys and
  addresses) and `tx` (scripts and transactions);
- domain: `msgauth`, `metadata`, `escrow`, `chain` and `anchor`, none of
  which imports another;
- evidence: `attestation`, which joins the domain modules into the linkage
  report and the certificate, and then `cli`.

Every record (keys, addresses, scripts, transactions, statuses, metadata,
agreements, reports) is a `collections.namedtuple` subclass with
`__slots__ = ()`, so its equality, hashing, repr and immutability come from
the C tuple. The reason is start-up: frozen dataclasses made each CLI
process import `dataclasses`, which pulls in `inspect`, `ast`, `dis` and
`tokenize`, and generate each class's methods with `exec` (`BENCH_16.json`).
The checks a record makes on its fields run in its `__new__`, so a record
that exists has passed them. A changed copy is built through the class, as
`type(r)(**{**r._asdict(), **changes})`, because `_replace` and `_make`
skip `__new__`; the package calls neither. `chain.ChainSource`, the one
mutable object, is a plain class.
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
