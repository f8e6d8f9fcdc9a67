"""M-of-N escrow construction: redeem scripts and deposit addresses.

Key order is caller-supplied and preserved; the byte-exact redeem script is
what links the on-chain record back to the agreement, so no canonical
sorting is applied.
"""

from __future__ import annotations

import json
from collections import namedtuple
from pathlib import Path

from .crypto import Address, Network, PublicKey, hash160, network_by_name
from .errors import EawardError, json_document, json_field, json_text
from .tx import OP_CHECKMULTISIG, Script, push_data


class PolicyInvalid(EawardError):
    pass


class EscrowPolicy(namedtuple("EscrowPolicy", "m pubkeys")):
    """Quorum size and the ordered public keys of an escrow."""

    __slots__ = ()

    def __new__(cls, m: int, pubkeys: tuple[PublicKey, ...]):
        n = len(pubkeys)
        if not 1 <= m <= n <= 15:
            raise PolicyInvalid(f"need 1 <= m <= n <= 15, got m={m}, n={n}")
        if len({k.data for k in pubkeys}) != n:
            raise PolicyInvalid("duplicate public keys in policy")
        return super().__new__(cls, m, pubkeys)

    @property
    def n(self) -> int:
        return len(self.pubkeys)


def build_redeem_script(policy: EscrowPolicy) -> Script:
    """OP_m <key>... OP_n OP_CHECKMULTISIG, keys in policy order."""
    out = bytearray([0x50 + policy.m])
    for key in policy.pubkeys:
        out += push_data(key.data)
    out += bytes([0x50 + policy.n, OP_CHECKMULTISIG])
    return Script(bytes(out))


def p2sh_address(script: Script, net: Network) -> Address:
    return Address.from_parts(net.p2sh_version, hash160(script.raw))


def policy_from_dict(doc: dict, where: str) -> EscrowPolicy:
    """The policy in {"m": int, "pubkeys": [hex, ...]} at path where ("policy."
    in an agreement). A malformed field raises TypeError or ValueError."""
    m = json_field(doc, where, "m", int)
    pubkeys = json_field(doc, where, "pubkeys", list)
    if any(type(k) is not str for k in pubkeys):
        raise TypeError(f"{where}pubkeys must be a list of str, got {pubkeys!r}")
    return EscrowPolicy(m, tuple(json_text(f"{where}pubkeys[{i}]", k, PublicKey.from_hex)
                                 for i, k in enumerate(pubkeys)))


def load_policy(path: str | Path) -> tuple[EscrowPolicy, Network]:
    """Read a policy file: {"m": int, "network": name, "pubkeys": [hex, ...]}."""
    doc = json_document(Path(path).read_bytes(), str(path), PolicyInvalid)
    try:
        return policy_from_dict(doc, ""), network_by_name(json_field(doc, "", "network", str))
    except (TypeError, ValueError, EawardError) as exc:
        raise PolicyInvalid(f"bad policy file {path}: {exc}") from exc


def dump_policy(policy: EscrowPolicy, network: Network) -> str:
    return json.dumps(
        {"m": policy.m, "network": network.name,
         "pubkeys": [k.hex() for k in policy.pubkeys]},
        indent=2,
    )
