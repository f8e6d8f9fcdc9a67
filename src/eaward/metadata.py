"""The on-chain award metadata line.

Wire form, ASCII: "A-<name>-<sfx> C-<name>-<sfx> R-<name>-<sfx> <seat> <frag>"
where each suffix is the last five characters of that participant's address
and the final token is the last 28 characters of the arbitrator's full
base64 message signature. Space and '-' are structural and banned inside
fields; the whole line must fit the 80-byte nulldata payload.
"""

from __future__ import annotations

import enum
import re
from collections import namedtuple

from .crypto import BASE58_ALPHABET
from .errors import EawardError

SUFFIX_LEN = 5
FRAGMENT_LEN = 28
PAYLOAD_LIMIT = 80


class MetadataError(EawardError):
    pass


class Role(enum.Enum):
    ARBITRATOR = "A"
    CLAIMANT = "C"
    RESPONDENT = "R"

    @classmethod
    def from_letter(cls, letter: str) -> "Role":
        for role in cls:
            if role.value == letter:
                return role
        raise MetadataError(f"role letter {letter!r} is not one of A/C/R")


ROLE_ORDER = (Role.ARBITRATOR, Role.CLAIMANT, Role.RESPONDENT)

_NAME_RE = re.compile(r"[0-9A-Za-z]+")
_SEAT_RE = re.compile(r"[!-~]+")  # printable ASCII, no spaces
_FRAGMENT_RE = re.compile(r"[0-9A-Za-z+/=]+")


class ParticipantTag(namedtuple("ParticipantTag", "role display_name suffix")):
    __slots__ = ()

    def __new__(cls, role: Role, display_name: str, suffix: str):
        if not _NAME_RE.fullmatch(display_name):
            raise MetadataError(
                f"display name {display_name!r} must be ASCII alphanumerics")
        if len(suffix) != SUFFIX_LEN:
            raise MetadataError(
                f"suffix {suffix!r} must be exactly {SUFFIX_LEN} characters")
        if any(c not in BASE58_ALPHABET for c in suffix):
            raise MetadataError(f"suffix {suffix!r} has non-base58 characters")
        return super().__new__(cls, role, display_name, suffix)

    def token(self) -> str:
        return f"{self.role.value}-{self.display_name}-{self.suffix}"


class AwardMetadata(namedtuple("AwardMetadata", "participants seat sig_fragment")):
    __slots__ = ()

    def __new__(cls, participants: tuple[ParticipantTag, ...], seat: str, sig_fragment: str):
        roles = tuple(p.role for p in participants)
        if len(set(roles)) != len(roles):
            raise MetadataError("one tag per role required")
        if roles != ROLE_ORDER:
            raise MetadataError("participants must appear in A, C, R order")
        if not _SEAT_RE.fullmatch(seat):
            raise MetadataError(
                f"seat {seat!r} must be one space-free printable ASCII token")
        if len(sig_fragment) != FRAGMENT_LEN:
            raise MetadataError(f"signature fragment must be {FRAGMENT_LEN} characters")
        if not _FRAGMENT_RE.fullmatch(sig_fragment):
            raise MetadataError("signature fragment has non-base64 characters")
        self = super().__new__(cls, participants, seat, sig_fragment)
        if len(self.text()) > PAYLOAD_LIMIT:
            raise MetadataError(
                f"metadata line is {len(self.text())} bytes, limit {PAYLOAD_LIMIT}")
        return self

    def participant(self, role: Role) -> ParticipantTag:
        return self.participants[ROLE_ORDER.index(role)]

    def text(self) -> str:
        return f"{attest_message(self)} {self.sig_fragment}"


def encode_metadata(meta: AwardMetadata) -> bytes:
    """The ASCII payload carried by the award's nulldata output."""
    return meta.text().encode("ascii")


def attest_message(meta: AwardMetadata) -> str:
    """The exact string the arbitrator's wallet signs: the metadata line
    without the trailing signature fragment."""
    return " ".join([*(p.token() for p in meta.participants), meta.seat])


def signature_fragment(signature_b64: str) -> str:
    """The last 28 characters of a full 88-character base64 signature."""
    if len(signature_b64) != 88:
        raise MetadataError(
            f"full signature must be 88 base64 characters, got {len(signature_b64)}")
    return signature_b64[-FRAGMENT_LEN:]


def match_fragment(signature_b64: str, fragment: str) -> bool:
    """True iff fragment is the tail of the full base64 signature."""
    if len(fragment) != FRAGMENT_LEN:
        raise MetadataError(
            f"fragment is {len(fragment)} characters, expected {FRAGMENT_LEN}")
    return signature_b64[-FRAGMENT_LEN:] == fragment


def decode_metadata(payload: bytes) -> AwardMetadata:
    """Inverse of encode_metadata, with field-level validation."""
    try:
        text = payload.decode("ascii")
    except UnicodeDecodeError as exc:
        raise MetadataError(f"payload is not ASCII: {exc}") from exc
    tokens = text.split(" ")
    if len(tokens) != 5:
        raise MetadataError(f"expected 5 space-separated tokens, got {len(tokens)}")

    tags = []
    for token in tokens[:3]:
        parts = token.split("-")
        if len(parts) != 3:
            raise MetadataError(f"participant token {token!r} must be role-name-suffix")
        role = Role.from_letter(parts[0])
        tags.append(ParticipantTag(role, parts[1], parts[2]))

    return AwardMetadata(tuple(tags), tokens[3], tokens[4])
