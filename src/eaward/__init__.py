"""Multisig escrow e-award toolkit.

Library surface for building M-of-N escrow records, encoding/decoding the
on-chain award metadata line, signing and verifying wallet attestations,
anchoring award documents, and assembling authentication certificates.
"""

from .errors import EawardError
from .crypto import (
    Address,
    MAINNET,
    Network,
    PrivateKey,
    PublicKey,
    RecoverableSig,
    TESTNET,
    base58check_decode,
    base58check_encode,
    digest,
    hash160,
    hash256,
    network_by_name,
    sha256,
)
from .tx import (
    DecodedScript,
    Script,
    Transaction,
    TxInput,
    TxOutput,
    Txid,
    build_nulldata_script,
    compute_txid,
    decode_script,
    extract_op_return,
    parse_transaction,
    script_to_asm,
    transaction_report,
)
from .escrow import EscrowPolicy, build_redeem_script, p2sh_address, pubkey_to_address
from .metadata import (
    AwardMetadata,
    ParticipantTag,
    Role,
    attest_message,
    decode_metadata,
    encode_metadata,
)
from .msgauth import SignedMessage, match_fragment, sign_message, verify_message
from .anchor import (
    AnchorProof,
    AwardDocument,
    ObjectStore,
    checksum_award,
    verify_anchor,
)
from .chain import ChainSource, TxStatus, broadcast, get_raw_transaction, get_tx_status
from .attestation import (
    AgreementReview,
    ArbitrationAgreement,
    AuthenticationCertificate,
    LinkageReport,
    Party,
    issue_certificate,
    load_agreement,
    match_transaction,
    metadata_for_agreement,
    validate_agreement,
)

__version__ = "0.1.0"
