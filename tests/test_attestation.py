import json
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import assume, given, settings, strategies as st

from eaward.attestation import (
    ArbitrationAgreement,
    AttestationError,
    AttestationInvalid,
    LinkageFailed,
    NoTimeEvidence,
    Party,
    agreement_from_dict,
    award_lines,
    certify,
    extract_redeem_script,
    issue_certificate,
    load_agreement,
    match_transaction,
    metadata_for_agreement,
    validate_agreement,
)
from eaward.chain import TxStatus
from eaward.crypto import Address, PrivateKey, TESTNET, sha256
from eaward.errors import Refusal
from eaward.escrow import EscrowPolicy
from eaward.metadata import Role, attest_message, encode_metadata, match_fragment
from eaward.msgauth import MalformedSignature, SignedMessage, sign_message
from eaward.tx import (
    OP_RETURN,
    Script,
    Transaction,
    TxInput,
    TxOutput,
    build_nulldata_script,
    push_data,
)

from conftest import (
    ADDR_A,
    ADDR_C,
    ADDR_R,
    ATTEST_MESSAGE,
    FIXTURES,
    METADATA_TEXT,
    SIGNATURE_B64,
    ZERO_PAYLOAD_ADDR,
    golden_policy,
    rebuild,
)

ISSUED_AT = datetime(2026, 8, 9, 12, 0, 0, tzinfo=timezone.utc)


def _with_payload(tx: Transaction, payload: bytes) -> Transaction:
    """The demo transaction with its metadata payload replaced."""
    outputs = (TxOutput(tx.outputs[0].value, build_nulldata_script(payload)),
               *tx.outputs[1:])
    return Transaction(tx.version, tx.inputs, outputs, tx.locktime)


def _agreement_with(agreement, **overrides) -> ArbitrationAgreement:
    base = dict(
        parties=agreement.parties,
        seat=agreement.seat,
        seat_jurisdiction=agreement.seat_jurisdiction,
        reasoned_award_opt_out=agreement.reasoned_award_opt_out,
        policy=agreement.policy,
        agreement_text_hash=agreement.agreement_text_hash,
    )
    base.update(overrides)
    return ArbitrationAgreement(**base)


# ---------------------------------------------------------------------------
# Agreement validation
# ---------------------------------------------------------------------------

def test_golden_agreement_validates_clean(golden_agreement):
    review = validate_agreement(golden_agreement)
    assert review.ok
    assert review.violations == ()
    assert review.warnings == ()


def test_shared_address_is_violation(golden_agreement):
    parties = list(golden_agreement.parties)
    parties[2] = Party(Role.RESPONDENT, parties[2].legal_name,
                       parties[2].display_name, parties[0].address)
    review = validate_agreement(_agreement_with(golden_agreement,
                                                parties=tuple(parties)))
    assert not review.ok
    assert any("share" in v for v in review.violations)


def test_unusable_display_name_is_violation(golden_agreement):
    parties = tuple(Party(p.role, p.legal_name, "John Smith", p.address)
                    if p.role is Role.ARBITRATOR else p for p in golden_agreement.parties)
    review = validate_agreement(_agreement_with(golden_agreement, parties=parties))
    assert not review.ok
    assert review.violations == (
        "ARBITRATOR display name unusable in metadata: "
        "display name 'John Smith' must be ASCII alphanumerics",)


def test_missing_role_is_violation(golden_agreement):
    parties = golden_agreement.parties[:2]
    review = validate_agreement(_agreement_with(golden_agreement, parties=parties))
    assert any("one party per role" in v for v in review.violations)


def test_policy_key_mismatch_is_violation(golden_agreement):
    other_key = PrivateKey.from_bytes(sha256(b"unrelated")).public_key()
    policy = EscrowPolicy(2, (*golden_policy().pubkeys[:2], other_key))
    review = validate_agreement(_agreement_with(golden_agreement, policy=policy))
    assert any("1:1" in v for v in review.violations)


def test_unknown_address_version_is_one_violation(golden_agreement):
    parties = tuple(Party(p.role, p.legal_name, p.display_name,
                          Address.from_parts(0xC4, p.address.payload))
                    for p in golden_agreement.parties)
    review = validate_agreement(_agreement_with(golden_agreement, parties=parties))
    assert [v for v in review.violations if "network" in v] == [
        "address version 0xc4 matches no known network"]


def test_opt_out_false_is_warning_not_violation(golden_agreement):
    review = validate_agreement(
        _agreement_with(golden_agreement, reasoned_award_opt_out=False))
    assert review.ok
    assert any("opt-out" in w for w in review.warnings)


def test_other_jurisdiction_is_warning(golden_agreement):
    review = validate_agreement(
        _agreement_with(golden_agreement, seat="Singapore",
                        seat_jurisdiction="other"))
    assert review.ok
    assert any("England/Switzerland" in w for w in review.warnings)


def test_unknown_jurisdiction_is_violation(golden_agreement):
    review = validate_agreement(
        _agreement_with(golden_agreement, seat_jurisdiction="Atlantis"))
    assert not review.ok


def _agreement_doc() -> dict:
    return json.loads((FIXTURES / "agreement.json").read_text())


def test_agreement_file_matches_golden_fields():
    assert load_agreement(FIXTURES / "agreement.json") == ArbitrationAgreement(
        parties=(
            Party(Role.ARBITRATOR, "John Smith", "JohnSmith", Address.from_text(ADDR_A)),
            Party(Role.CLAIMANT, "Acme", "Acme", Address.from_text(ADDR_C)),
            Party(Role.RESPONDENT, "Baker", "Baker", Address.from_text(ADDR_R)),
        ),
        seat="London",
        seat_jurisdiction="England",
        reasoned_award_opt_out=True,
        policy=golden_policy(),
    )


@pytest.mark.parametrize("mutate", [
    lambda doc: doc["policy"]["pubkeys"].__setitem__(0, "zz" * 33),
    lambda doc: doc.__setitem__("agreementTextHash", "not hex"),
    lambda doc: doc.__setitem__("agreementTextHash", ""),
    lambda doc: doc.__setitem__("agreementTextHash", "ab"),
    lambda doc: doc.__setitem__("agreementTextHash", "ab" * 33),
], ids=["nonhex_pubkey", "nonhex_text_hash", "empty_text_hash", "one_byte_text_hash",
        "33_byte_text_hash"])
def test_agreement_non_hex_field_is_attestation_error(mutate):
    doc = _agreement_doc()
    mutate(doc)
    with pytest.raises(AttestationError):
        agreement_from_dict(doc)


def test_agreement_text_hash_absent_null_or_hex():
    doc = _agreement_doc()
    doc["agreementTextHash"] = None
    assert agreement_from_dict(doc).agreement_text_hash is None
    del doc["agreementTextHash"]
    assert agreement_from_dict(doc).agreement_text_hash is None
    doc["agreementTextHash"] = "ab" * 32
    assert agreement_from_dict(doc).agreement_text_hash == b"\xab" * 32


@pytest.mark.parametrize("path,value", [
    (("reasonedAwardOptOut",), "false"),
    (("reasonedAwardOptOut",), 0),
    (("parties", 0, "role"), None),
    (("parties", 0, "legalName"), None),
    (("parties", 0, "displayName"), 5),
    (("parties", 0, "address"), [ADDR_A]),
    (("seat",), 5),
    (("seatJurisdiction",), ["England"]),
    (("policy", "m"), 2.0),
    (("policy", "m"), True),
    (("agreementTextHash",), 0),
    (("agreementTextHash",), False),
    (("agreementTextHash",), []),
    (("agreementTextHash",), {}),
], ids=repr)
def test_agreement_field_of_wrong_json_type_is_attestation_error(path, value):
    doc = _agreement_doc()
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(AttestationError, match="must be of type"):
        agreement_from_dict(doc)


# ---------------------------------------------------------------------------
# Linkage
# ---------------------------------------------------------------------------

def test_golden_linkage_all_true(golden_agreement, demo_tx):
    report = match_transaction(golden_agreement, demo_tx)
    assert report.overall
    assert report.seat_match
    for p in report.per_party:
        assert p.suffix_match and p.address_in_script
    assert report.metadata.seat == "London"


def test_extract_redeem_script_golden(demo_tx):
    decoded = extract_redeem_script(demo_tx, TESTNET)
    assert decoded.req_sigs == 2
    assert [a.text for a in decoded.addresses] == [ADDR_A, ADDR_C, ADDR_R]


@pytest.mark.parametrize("m,reverse", [(1, False), (2, True)],
                         ids=["quorum_1", "pubkeys_reversed"])
def test_policy_other_than_revealed_script_fails_linkage(golden_agreement, demo_tx,
                                                         m, reverse):
    keys = golden_agreement.policy.pubkeys
    policy = EscrowPolicy(m, keys[::-1] if reverse else keys)
    report = match_transaction(_agreement_with(golden_agreement, policy=policy), demo_tx)
    assert not report.overall
    assert report.failures() == ["redeem script"]
    # Only the script's item and the verdict change.
    golden = match_transaction(golden_agreement, demo_tx).to_report()
    assert report.to_report() == {**golden, "scriptMatch": False, "overall": False}


@pytest.mark.parametrize("display_name", ["Mallory", "Ac-me"], ids=["other", "unusable"])
def test_display_name_mismatch_fails_linkage(golden_agreement, demo_tx, display_name):
    parties = list(golden_agreement.parties)
    parties[1] = Party(Role.CLAIMANT, "Acme", display_name, parties[1].address)
    report = match_transaction(_agreement_with(golden_agreement, parties=tuple(parties)),
                               demo_tx)
    assert report.failures() == ["claimant display name"]
    assert not report.overall


def test_wrong_seat_fails_seat_match(golden_agreement, demo_tx):
    report = match_transaction(
        _agreement_with(golden_agreement, seat="Paris"), demo_tx)
    assert not report.seat_match
    assert not report.overall
    assert all(p.suffix_match for p in report.per_party)


def test_replaced_address_fails_script_membership(golden_agreement, demo_tx):
    parties = list(golden_agreement.parties)
    decoy = Address.from_text(ZERO_PAYLOAD_ADDR)
    parties[2] = Party(Role.RESPONDENT, "Baker", "Baker", decoy)
    report = match_transaction(
        _agreement_with(golden_agreement, parties=tuple(parties)), demo_tx)
    linkage_r = report.per_party[2]
    assert not linkage_r.address_in_script
    assert not linkage_r.suffix_match
    assert not report.overall
    # The untouched parties still link.
    assert report.per_party[0].address_in_script and report.per_party[0].suffix_match


def demo_prev():
    from eaward.tx import Txid
    return Txid(bytes(32))


def test_no_redeem_script(golden_agreement):
    tx = Transaction(
        2,
        (TxInput(demo_prev(), 0, Script(b"")),),
        (TxOutput(0, build_nulldata_script(b"A-a-11111 C-b-22222 R-c-33333 X " + b"Q" * 28)),),
    )
    with pytest.raises(AttestationError, match="input scriptSig reveals no redeem script"):
        match_transaction(golden_agreement, tx)


def test_no_metadata(golden_agreement, demo_tx):
    tx = Transaction(
        demo_tx.version, demo_tx.inputs,
        (TxOutput(500_000, Script(b"\x76\xa9\x14" + bytes(20) + b"\x88\xac")),),
        demo_tx.locktime)
    with pytest.raises(AttestationError, match="transaction carries no nulldata output"):
        match_transaction(golden_agreement, tx)


def test_metadata_unparseable(golden_agreement, demo_tx):
    tx = _with_payload(demo_tx, b"\x00" * 32)  # an anchor digest, not metadata
    with pytest.raises(AttestationError, match="no nulldata payload parses as award metadata"):
        match_transaction(golden_agreement, tx)


def test_overlong_metadata_line_is_skipped(demo_tx):
    # A line-shaped 104-byte payload, over the 80-byte limit, in two pushes.
    line = METADATA_TEXT.replace("A-JohnSmith", "A-JohnSmith" + "X" * 24).encode()
    overlong = TxOutput(0, Script(bytes([OP_RETURN]) + push_data(line[:52])
                                  + push_data(line[52:])))
    tx = Transaction(demo_tx.version, demo_tx.inputs, (overlong, *demo_tx.outputs))
    assert {i: m.text() for i, m in award_lines(tx).items()} == {1: METADATA_TEXT}
    alone = Transaction(demo_tx.version, demo_tx.inputs, (overlong,))
    with pytest.raises(AttestationError, match="no nulldata payload parses as award "
                                               "metadata: metadata line is 104 bytes"):
        award_lines(alone)


def test_anchor_plus_metadata_coexist(golden_agreement, demo_tx):
    extra = TxOutput(0, build_nulldata_script(sha256(b"anchored award")))
    tx = Transaction(demo_tx.version, demo_tx.inputs,
                     (extra, *demo_tx.outputs), demo_tx.locktime)
    report = match_transaction(golden_agreement, tx)
    assert report.overall


_B64 = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"


@settings(max_examples=40, deadline=None)
@given(seat=st.text("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz", min_size=1,
                    max_size=6),
       fragment=st.none() | st.text(_B64, min_size=27, max_size=27).map(lambda t: t + "="),
       others=st.lists(st.sampled_from(["anchor", "payout"]), max_size=3),
       data=st.data())
def test_a_second_award_line_never_certifies(golden_agreement, demo_tx, golden_status,
                                             seat, fragment, others, data):
    # Another award line, at any output index among the demo's own line and
    # outputs that carry no award line, refuses the record and names both
    # outputs.
    meta, = award_lines(demo_tx).values()
    other = rebuild(meta, seat=seat, sig_fragment=fragment or meta.sig_fragment)
    assume(other != meta)
    filler = {"anchor": build_nulldata_script(sha256(b"anchored award")),
              "payout": Script(b"\x76\xa9\x14" + bytes(20) + b"\x88\xac")}
    outputs = [TxOutput(0, filler[kind]) for kind in others]
    own = data.draw(st.integers(0, len(outputs)), label="own index")
    outputs.insert(own, demo_tx.outputs[0])
    second = data.draw(st.integers(0, len(outputs)), label="second index")
    outputs.insert(second, TxOutput(0, build_nulldata_script(encode_metadata(other))))
    own += second <= own
    tx = rebuild(demo_tx, outputs=tuple(outputs))
    with pytest.raises(LinkageFailed) as refused:
        certify(golden_agreement, tx, golden_status, SIGNATURE_B64, "W", ISSUED_AT)
    assert str(refused.value).endswith(
        f"award lines in outputs {min(own, second)}, {max(own, second)}")


def test_multi_input_same_redeem_ok(golden_agreement, demo_tx):
    tx = Transaction(demo_tx.version, demo_tx.inputs * 2, demo_tx.outputs)
    assert match_transaction(golden_agreement, tx).overall


def test_multi_input_differing_redeem_rejected(golden_agreement, demo_tx):
    other = TxInput(demo_prev(), 0, Script(push_data(b"\x51")), 0xFFFFFFFF)
    tx = Transaction(demo_tx.version, (*demo_tx.inputs, other), demo_tx.outputs)
    with pytest.raises(AttestationError, match="inputs reveal different redeem scripts"):
        match_transaction(golden_agreement, tx)


# ---------------------------------------------------------------------------
# Certificate
# ---------------------------------------------------------------------------

def test_certificate_golden_findings(golden_agreement, demo_tx, golden_status):
    cert = certify(golden_agreement, demo_tx, golden_status, SIGNATURE_B64,
                   "Expert Witness", ISSUED_AT)
    from eaward.tx import compute_txid
    txid_hex = compute_txid(demo_tx).hex()
    assert cert.findings == (
        f"Transaction id {txid_hex} was completed on 28 March 2019 at 15:46:53 UTC",
        "The transaction amount was 0.005 BTC",
        '"A-JohnSmith-KkjJX" relates to mzV1dsMdDjtLSfRa2rPrE2oJpRtynKkjJX',
        '"C-Acme-fZN8L" relates to mpGZniUmoCemQzRbazvdgzGkmjUQ3fZN8L',
        '"R-Baker-NBSvH" relates to n2dSPmt5cv2hFNfQqoZtvRJ6bZmypNBSvH',
        "The transaction makes reference to London.",
        "John Smith's wallet digitally signed the embedded data.",
        "The record is unaltered given 1000 network confirmations.",
    )
    assert cert.certifier == "Expert Witness"
    assert "median-time-past" in cert.statement


def test_certificate_deterministic(golden_agreement, demo_tx, golden_status):
    one = certify(golden_agreement, demo_tx, golden_status, SIGNATURE_B64, "W", ISSUED_AT)
    two = certify(golden_agreement, demo_tx, golden_status, SIGNATURE_B64, "W", ISSUED_AT)
    assert one == two


def test_issue_certificate_is_certify_of_its_one_attestation(golden_agreement, demo_tx,
                                                             golden_status):
    # The benchmark's library path gives the certificate the CLI's path gives.
    attestation = SignedMessage(Address.from_text(ADDR_A), ATTEST_MESSAGE, SIGNATURE_B64)
    assert issue_certificate(golden_agreement, demo_tx, golden_status, [attestation],
                             "W", ISSUED_AT) == certify(
        golden_agreement, demo_tx, golden_status, SIGNATURE_B64, "W", ISSUED_AT)


def test_certificate_reports_time_and_linkage(golden_agreement, demo_tx, golden_status):
    cert = certify(golden_agreement, demo_tx, golden_status, SIGNATURE_B64, "W", ISSUED_AT)
    report = cert.to_report()
    assert report["timeEvidence"]["blockTime"] == "2019-03-28T15:46:53Z"
    assert report["timeEvidence"]["confirmations"] == 1000
    assert report["originEvidence"]["linkage"]["overall"] is True
    assert report["originEvidence"]["attestations"] == [
        {"address": ADDR_A, "message": ATTEST_MESSAGE, "signature": SIGNATURE_B64}]
    assert report["intentEvidence"]["reasonedAwardOptOut"] is True
    assert report["intentEvidence"]["attestedMessage"] == ATTEST_MESSAGE


@settings(max_examples=30, deadline=None)
@given(instant=st.datetimes(min_value=datetime(2009, 1, 3), max_value=datetime(2100, 1, 1)),
       offset=st.integers(min_value=-12 * 60, max_value=14 * 60))
def test_certificate_states_one_time_for_the_block(golden_agreement, demo_tx,
                                                   instant, offset):
    # The same instant in any zone from UTC-12 to UTC+14: the finding's date
    # and time are the UTC ones that blockTime states.
    when = instant.replace(microsecond=0, tzinfo=timezone.utc)
    status = TxStatus(when.astimezone(timezone(timedelta(minutes=offset))), 1000)
    cert = certify(golden_agreement, demo_tx, status, SIGNATURE_B64, "W", ISSUED_AT)
    stated = cert.findings[0].split(" was completed on ")[1]
    assert stated == f"{when:%d %B %Y} at {when:%H:%M:%S} UTC"
    stated_at = datetime.strptime(stated, "%d %B %Y at %H:%M:%S UTC")
    assert f"{stated_at:%Y-%m-%dT%H:%M:%S}Z" == cert.to_report()["timeEvidence"]["blockTime"]


@pytest.mark.parametrize("block_time,date", [
    ("2019-01-03T18:15:05", "03 January 2019"),
    ("2019-02-28T00:00:00", "28 February 2019"),
    ("2020-03-01T23:59:59", "01 March 2020"),
    ("2021-04-30T12:00:00", "30 April 2021"),
    ("2022-05-09T06:07:08", "09 May 2022"),
    ("2023-06-15T15:46:53", "15 June 2023"),
    ("2024-07-04T01:02:03", "04 July 2024"),
    ("2025-08-31T22:22:22", "31 August 2025"),
    ("2026-09-10T10:10:10", "10 September 2026"),
    ("2027-10-20T20:00:01", "20 October 2027"),
    ("2028-11-11T11:11:11", "11 November 2028"),
    ("2099-12-31T23:59:58", "31 December 2099"),
])
def test_certificate_names_the_month_in_english(golden_agreement, demo_tx,
                                                block_time, date):
    when = datetime.fromisoformat(block_time).replace(tzinfo=timezone.utc)
    cert = certify(golden_agreement, demo_tx, TxStatus(when, 1000), SIGNATURE_B64,
                   "W", ISSUED_AT)
    assert cert.findings[0].endswith(f" was completed on {date} at {block_time[11:]} UTC")


def test_certificate_refuses_a_naive_issue_time(golden_agreement, demo_tx, golden_status):
    # A time with no zone would be read as the machine's local time.
    with pytest.raises(AttestationError, match="issued_at has no time zone") as caught:
        certify(golden_agreement, demo_tx, golden_status, SIGNATURE_B64, "W",
                datetime(2026, 8, 9, 12, 0, 0))
    assert not isinstance(caught.value, Refusal)


def test_certificate_requires_linkage(golden_agreement, demo_tx, golden_status):
    wrong_seat = _agreement_with(golden_agreement, seat="Paris")
    with pytest.raises(LinkageFailed):
        certify(wrong_seat, demo_tx, golden_status, SIGNATURE_B64, "W", ISSUED_AT)


def test_certificate_requires_time_evidence(golden_agreement, demo_tx):
    # No status at all is a library input only: a chain source answers an
    # unconfirmed transaction with TxStatus(None, 0), a row of acceptance
    # criterion 4's single faults.
    with pytest.raises(NoTimeEvidence):
        certify(golden_agreement, demo_tx, None, SIGNATURE_B64, "W", ISSUED_AT)


def test_malformed_signature_is_read_before_any_check(golden_agreement, demo_tx):
    # Every input is read before linkage, time and the signature answer: text
    # that is no signature is a data error even where linkage and time fail.
    wrong_seat = _agreement_with(golden_agreement, seat="Paris")
    with pytest.raises(MalformedSignature) as caught:
        certify(wrong_seat, demo_tx, None, SIGNATURE_B64[:-4], "W", ISSUED_AT)
    assert not isinstance(caught.value, Refusal)


def test_corrupted_signature_is_invalid(golden_agreement, demo_tx, golden_status):
    corrupted = "IO0vDf3Zqf" + ("S" if SIGNATURE_B64[10] != "S" else "T") + SIGNATURE_B64[11:]
    with pytest.raises(AttestationInvalid):
        certify(golden_agreement, demo_tx, golden_status, corrupted, "W", ISSUED_AT)


def test_non_party_signer_is_invalid(golden_agreement, demo_tx, golden_status):
    stranger_key = PrivateKey.from_bytes(sha256(b"stranger"))
    stranger = sign_message(stranger_key, ATTEST_MESSAGE, TESTNET)
    with pytest.raises(AttestationInvalid, match=f"signature does not verify for {ADDR_A}"):
        certify(golden_agreement, demo_tx, golden_status, stranger.signature_b64,
                "W", ISSUED_AT)


def _arbitrator_refused(case) -> str:
    return f"signature does not verify for {case.agreement.party(Role.ARBITRATOR).address.text}"


def test_party_attestation_is_invalid(synthetic_case):
    # A genuine signature of the metadata line, by a party who is not the
    # arbitrator, is not the arbitrator's.
    case = synthetic_case
    for role in (Role.CLAIMANT, Role.RESPONDENT):
        party = sign_message(case.keys[role], case.attestation.message, TESTNET)
        with pytest.raises(AttestationInvalid, match=_arbitrator_refused(case)):
            certify(case.agreement, case.tx, case.status, party.signature_b64,
                    "W", ISSUED_AT)


def test_attestation_of_another_line_is_invalid(synthetic_case):
    # The arbitrator signs a line X and the metadata line L carries the tail
    # of that signature: the fragment checks out, but L is not X.
    case = synthetic_case
    other = sign_message(case.keys[Role.ARBITRATOR], case.attestation.message + " draft",
                         TESTNET)
    meta = metadata_for_agreement(case.agreement, other.signature_b64)
    assert match_fragment(other.signature_b64, meta.sig_fragment)
    assert attest_message(meta) != other.message
    tx = _with_payload(case.tx, encode_metadata(meta))
    with pytest.raises(AttestationInvalid, match=_arbitrator_refused(case)):
        certify(case.agreement, tx, case.status, other.signature_b64, "W", ISSUED_AT)


# ---------------------------------------------------------------------------
# Fully self-signed synthetic escrow
# ---------------------------------------------------------------------------

def test_synthetic_case_full_pipeline(synthetic_case):
    case = synthetic_case
    review = validate_agreement(case.agreement)
    assert review.ok
    assert any("England/Switzerland" in w for w in review.warnings)

    report = match_transaction(case.agreement, case.tx)
    assert report.overall

    cert = certify(case.agreement, case.tx, case.status, case.attestation.signature_b64,
                   "Self Certifier", ISSUED_AT)
    assert "Party A's wallet digitally signed the embedded data." in cert.findings
    assert any("0.005 BTC" in line for line in cert.findings)


def test_synthetic_fragment_invariant(synthetic_case):
    meta, = award_lines(synthetic_case.tx).values()
    assert match_fragment(synthetic_case.attestation.signature_b64,
                          meta.sig_fragment)
    assert synthetic_case.attestation.message == attest_message(meta)


def test_metadata_for_agreement_suffix_invariant(synthetic_case):
    meta = metadata_for_agreement(synthetic_case.agreement,
                                  synthetic_case.attestation.signature_b64)
    for role in Role:
        address = synthetic_case.agreement.party(role).address.text
        assert meta.participant(role).suffix == address[-5:]


def test_linkage_overall_is_conjunction(golden_agreement, demo_tx):
    report = match_transaction(golden_agreement, demo_tx)
    from eaward.attestation import PartyLinkage
    assert report.overall
    weakened = rebuild(report, per_party=(PartyLinkage(Role.ARBITRATOR, True, False, True),
                                          *report.per_party[1:]))
    assert not weakened.overall
    renamed = rebuild(report, per_party=(PartyLinkage(Role.ARBITRATOR, True, True, False),
                                         *report.per_party[1:]))
    assert not renamed.overall
    unscripted = rebuild(report, script_match=False)
    assert not unscripted.overall
    unseated = rebuild(report, seat_match=False)
    assert not unseated.overall
    none_hold = rebuild(report, seat_match=False, script_match=False, per_party=tuple(
        PartyLinkage(p.role, False, False, False) for p in report.per_party))
    # The report a certificate carries has one key per linkage item, and its
    # overall is their conjunction.
    for variant in (report, weakened, renamed, unscripted, unseated, none_hold):
        doc = variant.to_report()
        assert set(doc) == {"txid", "seatMatch", "scriptMatch", "parties", "overall"}
        items = [doc["seatMatch"], doc["scriptMatch"]]
        for party in doc["parties"]:
            assert set(party) == {"role", "nameMatch", "suffixMatch", "addressInScript"}
            items += [party["nameMatch"], party["suffixMatch"], party["addressInScript"]]
        assert len(items) == len(none_hold.failures())
        assert items.count(False) == len(variant.failures())
        assert doc["overall"] is all(items) is variant.overall
