"""Agreement records, transaction linkage, and authentication certificates.

The agreement binds legal names and roles to wallet addresses up front; the
linkage report checks, item by item, that an on-chain record matches that
binding; the certificate bundles the three authentication facts an
enforcement reviewer needs (where the record came from, when it was
committed, and that it was intended to take legal effect) and refuses to
exist unless all three are established.
"""

from __future__ import annotations

from collections import namedtuple
from datetime import datetime, timezone
from pathlib import Path

from .chain import TxStatus, format_time
from .crypto import Address, Network, p2pkh_network, pubkey_to_address
from .errors import EawardError, Refusal, json_document, json_field, json_text, parse_hex
from .escrow import build_redeem_script, policy_from_dict
from .metadata import (
    AwardMetadata,
    MetadataError,
    ParticipantTag,
    Role,
    ROLE_ORDER,
    SUFFIX_LEN,
    attest_message,
    decode_metadata,
    match_fragment,
    signature_fragment,
)
from .msgauth import decode_signature, verify_message
from .tx import (
    Script,
    Transaction,
    compute_txid,
    decode_script,
    format_btc,
    nulldata_payload,
)

SEAT_JURISDICTIONS = ("England", "Switzerland", "other")


class AttestationError(EawardError):
    pass


class LinkageFailed(AttestationError, Refusal):
    pass


class AttestationInvalid(AttestationError, Refusal):
    pass


class NoTimeEvidence(AttestationError, Refusal):
    pass


class Party(namedtuple("Party", "role legal_name display_name address")):
    __slots__ = ()

    def tag(self) -> ParticipantTag:
        """This party's metadata tag; MetadataError if no line can carry it."""
        return ParticipantTag(self.role, self.display_name, self.address.text[-SUFFIX_LEN:])


class ArbitrationAgreement(namedtuple(
        "ArbitrationAgreement", "parties seat seat_jurisdiction reasoned_award_opt_out policy "
        "agreement_text_hash", defaults=(None,))):
    __slots__ = ()

    def party(self, role: Role) -> Party:
        for p in self.parties:
            if p.role == role:
                return p
        raise AttestationError(f"agreement has no {role.name} party")

    def network(self) -> Network:
        if not self.parties:
            raise AttestationError("agreement names no parties")
        address = self.parties[0].address
        net = p2pkh_network(address)
        if net is None:
            raise AttestationError(
                f"address version {address.version:#04x} matches no known network")
        return net


class AgreementReview(namedtuple("AgreementReview", "violations warnings")):
    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_agreement(agreement: ArbitrationAgreement) -> AgreementReview:
    """Invariant check; violations block use, warnings flag recognizability
    risks (seat outside England/Switzerland, no reasoned-award opt-out)."""
    violations = []
    warnings = []

    roles = [p.role for p in agreement.parties]
    if sorted(r.value for r in roles) != [r.value for r in ROLE_ORDER]:
        violations.append("agreement must name exactly one party per role A/C/R")

    addresses = [p.address.text for p in agreement.parties]
    if len(set(addresses)) != len(addresses):
        violations.append("two parties share a wallet address")

    if len({p.address.version for p in agreement.parties}) > 1:
        violations.append("party addresses mix network version bytes")

    for p in agreement.parties:
        try:
            p.tag()
        except MetadataError as exc:
            violations.append(f"{p.role.name} display name unusable in metadata: {exc}")

    try:
        net = agreement.network()
        policy_addresses = {
            pubkey_to_address(k, net).text for k in agreement.policy.pubkeys}
        if policy_addresses != set(addresses):
            violations.append(
                "escrow policy keys do not correspond 1:1 to party addresses")
    except AttestationError as exc:
        violations.append(str(exc))

    if not agreement.seat:
        violations.append("agreement names no seat")
    if agreement.seat_jurisdiction not in SEAT_JURISDICTIONS:
        violations.append(
            f"seat_jurisdiction must be one of {SEAT_JURISDICTIONS}")
    elif agreement.seat_jurisdiction == "other":
        warnings.append(
            "seat outside England/Switzerland: award-form freedom not assured")
    if not agreement.reasoned_award_opt_out:
        warnings.append(
            "no reasoned-award opt-out: a compact on-chain record may not satisfy "
            "the applicable form rules")

    return AgreementReview(tuple(violations), tuple(warnings))


def _refuse_invalid(agreement: ArbitrationAgreement):
    """Raise AttestationError naming the violations of an invalid agreement."""
    review = validate_agreement(agreement)
    if not review.ok:
        raise AttestationError(
            f"agreement is invalid: {'; '.join(review.violations)}")


# ---------------------------------------------------------------------------
# Linkage
# ---------------------------------------------------------------------------

class PartyLinkage(namedtuple("PartyLinkage",
                              "role suffix_match address_in_script name_match")):
    __slots__ = ()


class LinkageReport(namedtuple("LinkageReport",
                               "txid metadata per_party seat_match script_match award_outputs")):
    """metadata is the award line in the first of award_outputs, the indices
    of the outputs whose payload parses as one; a record evidences one award
    only when it carries exactly one such line."""
    __slots__ = ()

    def failures(self) -> list[str]:
        """Each linkage item that does not hold, by name."""
        items = [("seat", self.seat_match), ("redeem script", self.script_match)]
        for p in self.per_party:
            items += [(f"{p.role.name.lower()} {item}", ok) for item, ok in (
                ("display name", p.name_match), ("address suffix", p.suffix_match),
                ("address not in script", p.address_in_script))]
        items.append((f"award lines in outputs {', '.join(map(str, self.award_outputs))}",
                      len(self.award_outputs) == 1))
        return [name for name, ok in items if not ok]

    @property
    def overall(self) -> bool:
        return not self.failures()

    def to_report(self) -> dict:
        return {
            "txid": self.txid.hex(),
            "seatMatch": self.seat_match,
            "scriptMatch": self.script_match,
            "parties": [
                {"role": p.role.value, "nameMatch": p.name_match,
                 "suffixMatch": p.suffix_match, "addressInScript": p.address_in_script}
                for p in self.per_party
            ],
            "overall": self.overall,
        }


def extract_redeem_script(tx: Transaction, network: Network):
    """The escrow redeem script: final push of the first input's scriptSig.

    Spends with several inputs are accepted only when every input reveals
    the same script.
    """
    scripts = []
    for txin in tx.inputs:
        pushes = txin.script_sig.pushes()
        if not pushes:
            raise AttestationError("input scriptSig reveals no redeem script")
        scripts.append(pushes[-1])
    if len(set(scripts)) != 1:
        raise AttestationError("inputs reveal different redeem scripts")
    decoded = decode_script(Script(scripts[0]), network)
    if decoded.kind != "multisig":
        raise AttestationError(f"revealed script is {decoded.kind}, not multisig")
    return decoded


def award_lines(tx: Transaction) -> dict[int, AwardMetadata]:
    """Each nulldata payload that parses as award metadata, by output index;
    AttestationError when there is none."""
    lines = {}
    last_error = None
    for index, txout in enumerate(tx.outputs):
        payload = nulldata_payload(txout.script_pubkey)
        if payload is None:
            continue
        try:
            lines[index] = decode_metadata(payload)
        except MetadataError as exc:
            last_error = exc
    if lines:
        return lines
    if last_error is None:
        raise AttestationError("transaction carries no nulldata output")
    raise AttestationError(f"no nulldata payload parses as award metadata: {last_error}")


def match_transaction(agreement: ArbitrationAgreement, tx: Transaction) -> LinkageReport:
    """Per-party name, suffix and script-membership checks, the seat check,
    whether the revealed script is the one the escrow policy builds, and
    which outputs carry an award line."""
    network = agreement.network()
    decoded = extract_redeem_script(tx, network)
    script_addresses = {a.text for a in decoded.addresses}
    lines = award_lines(tx)
    meta = next(iter(lines.values()))

    per_party = []
    for role in ROLE_ORDER:
        party = agreement.party(role)
        tag = meta.participant(role)
        per_party.append(PartyLinkage(
            role=role,
            suffix_match=(tag.suffix == party.address.text[-SUFFIX_LEN:]),
            address_in_script=(party.address.text in script_addresses),
            name_match=(tag.display_name == party.display_name),
        ))
    return LinkageReport(
        txid=compute_txid(tx),
        metadata=meta,
        per_party=tuple(per_party),
        seat_match=(meta.seat == agreement.seat),
        script_match=(decoded.script == build_redeem_script(agreement.policy)),
        award_outputs=tuple(lines),
    )


# ---------------------------------------------------------------------------
# Certificate
# ---------------------------------------------------------------------------

class AuthenticationCertificate(namedtuple(
        "AuthenticationCertificate", "txid origin_evidence time_evidence intent_evidence "
        "certifier findings statement issued_at")):
    __slots__ = ()

    def to_report(self) -> dict:
        return {
            "txid": self.txid.hex(),
            "certifier": self.certifier,
            "issuedAt": format_time(self.issued_at),
            "originEvidence": self.origin_evidence,
            "timeEvidence": self.time_evidence,
            "intentEvidence": self.intent_evidence,
            "findings": list(self.findings),
            "statement": self.statement,
        }


# strftime's %B names a month in the LC_TIME locale; a certificate says it
# in English whatever locale its process runs under.
_MONTHS = ("January", "February", "March", "April", "May", "June", "July",
           "August", "September", "October", "November", "December")


def certify(
    agreement: ArbitrationAgreement,
    tx: Transaction,
    status: TxStatus | None,
    signature_b64: str,
    certifier: str,
    issued_at: datetime | None = None,
) -> AuthenticationCertificate:
    """Assemble the evidence bundle; raises instead of issuing a weak one.

    signature_b64 is the arbitrator's signature over the metadata line the
    transaction carries. Every input is read first, and a bad one raises an
    error that is not a Refusal; then linkage, time and the signature
    answer, in that order.
    Origin: the verified arbitrator signature plus the full linkage report.
    Time: block timestamp and confirmation count from the chain source.
    Intent: the agreement reference, its opt-out flag, and the signed line.
    issued_at, if given, must be an aware datetime; it defaults to now.
    """
    if issued_at is not None and issued_at.utcoffset() is None:
        raise AttestationError(f"issued_at has no time zone: {issued_at}")
    _refuse_invalid(agreement)
    report = match_transaction(agreement, tx)
    decode_signature(signature_b64)

    if not report.overall:
        raise LinkageFailed(
            f"agreement does not match transaction: {', '.join(report.failures())}")
    if status is None or status.block_time is None:
        raise NoTimeEvidence("no confirmed block time for the transaction")

    arbitrator = agreement.party(Role.ARBITRATOR)
    message = attest_message(report.metadata)
    if not verify_message(arbitrator.address, signature_b64, message):
        raise AttestationInvalid(
            f"signature does not verify for {arbitrator.address.text}")
    if not match_fragment(signature_b64, report.metadata.sig_fragment):
        raise AttestationInvalid(
            "embedded signature fragment does not match the arbitrator attestation")

    txid = report.txid
    when = status.block_time  # UTC, as TxStatus keeps it
    amount = format_btc(sum(out.value for out in tx.outputs)).rstrip("0").rstrip(".")
    findings = [
        f"Transaction id {txid.hex()} was completed on "
        f"{when.day:02} {_MONTHS[when.month - 1]} {when.year} at {when:%H:%M:%S} UTC",
        f"The transaction amount was {amount} BTC",
    ]
    for role in ROLE_ORDER:
        tag = report.metadata.participant(role)
        findings.append(
            f"\"{tag.token()}\" relates to {agreement.party(role).address.text}")
    findings.append(f"The transaction makes reference to {agreement.seat}.")
    findings.append(
        f"{arbitrator.legal_name}'s wallet digitally signed the embedded data.")
    findings.append(
        f"The record is unaltered given {status.confirmations} network confirmations.")

    issued_at = issued_at or datetime.now(timezone.utc).replace(microsecond=0)
    statement_lines = [
        f"Certification by {certifier}.",
        "The transaction data identified above was examined together with the "
        "arbitration agreement on record.",
        *(" - " + line for line in findings),
        "Origin, time, and intended legal effect are each established by the "
        "evidence itemized in this certificate.",
        "Note: the date and time stated are the miner-reported block header "
        "time; median-time-past rules bound its accuracy.",
    ]

    return AuthenticationCertificate(
        txid=txid,
        origin_evidence={
            "attestations": [{"address": arbitrator.address.text, "message": message,
                              "signature": signature_b64}],
            "linkage": report.to_report(),
        },
        time_evidence={
            "blockTime": format_time(when),
            "confirmations": status.confirmations,
            "blockHash": status.block_hash,
        },
        intent_evidence={
            "seat": agreement.seat,
            "seatJurisdiction": agreement.seat_jurisdiction,
            "reasonedAwardOptOut": agreement.reasoned_award_opt_out,
            "attestedMessage": message,
            "agreementTextHash": (
                agreement.agreement_text_hash.hex()
                if agreement.agreement_text_hash else None),
        },
        certifier=certifier,
        findings=tuple(findings),
        statement="\n".join(statement_lines),
        issued_at=issued_at,
    )


def issue_certificate(agreement, tx, status, attestations, certifier, issued_at=None):
    """certify of a one-signature list, as the benchmark calls it; ROADMAP item 1 deletes it."""
    att, = attestations
    return certify(agreement, tx, status, att.signature_b64, certifier, issued_at)


# ---------------------------------------------------------------------------
# Agreement files and helpers
# ---------------------------------------------------------------------------

def metadata_for_agreement(agreement: ArbitrationAgreement,
                           signature_b64: str) -> AwardMetadata:
    """Build the metadata line for an agreement from the arbitrator's full
    attestation signature; refused for an invalid agreement."""
    _refuse_invalid(agreement)
    tags = tuple(agreement.party(role).tag() for role in ROLE_ORDER)
    return AwardMetadata(tags, agreement.seat, signature_fragment(signature_b64))


def load_agreement(path: str | Path) -> ArbitrationAgreement:
    doc = json_document(Path(path).read_bytes(), str(path), AttestationError)
    try:
        return agreement_from_dict(doc)
    except AttestationError as exc:
        raise AttestationError(f"{path}: {exc}") from exc


def _party_from_dict(doc: dict, where: str) -> Party:
    def text(key):
        return json_field(doc, where, key, str)
    return Party(json_text(f"{where}role", text("role"), Role.from_letter),
                 text("legalName"), text("displayName"),
                 json_text(f"{where}address", text("address"), Address.from_text))


def agreement_from_dict(doc: dict) -> ArbitrationAgreement:
    try:
        parties = tuple(_party_from_dict(p, f"parties[{i}].")
                        for i, p in enumerate(json_field(doc, "", "parties", list)))
        policy = policy_from_dict(json_field(doc, "", "policy", dict), "policy.")
        text_hash = json_field(doc, "", "agreementTextHash", str, None)
        text_hash = None if text_hash is None else json_text(
            "agreementTextHash", text_hash, parse_hex)
        if text_hash is not None and len(text_hash) != 32:
            raise ValueError(f"agreementTextHash: expected 32 bytes, got {len(text_hash)}")
        return ArbitrationAgreement(
            parties=parties,
            seat=json_field(doc, "", "seat", str),
            seat_jurisdiction=json_field(doc, "", "seatJurisdiction", str),
            reasoned_award_opt_out=json_field(doc, "", "reasonedAwardOptOut", bool),
            policy=policy,
            agreement_text_hash=text_hash,
        )
    except (TypeError, ValueError, EawardError) as exc:
        raise AttestationError(f"bad agreement document: {exc}") from exc

