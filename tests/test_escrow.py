import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eaward.crypto import MAINNET, TESTNET, PrivateKey, PublicKey, pubkey_to_address, sha256
from eaward.escrow import (
    EscrowPolicy,
    PolicyInvalid,
    build_redeem_script,
    dump_policy,
    load_policy,
    p2sh_address,
)
from eaward.tx import decode_script

from conftest import (
    ADDR_A,
    ADDR_C,
    ADDR_R,
    P2SH_MAINNET,
    P2SH_TESTNET,
    PK1_HEX,
    PK2_HEX,
    REDEEM_HEX,
    golden_policy,
    golden_pubkeys,
)


def _key(i: int) -> PublicKey:
    return PrivateKey.from_bytes(sha256(f"escrow test key {i}".encode())).public_key()


def test_build_redeem_script_golden_byte_exact():
    assert build_redeem_script(golden_policy()).hex() == REDEEM_HEX


def test_build_redeem_script_smallest_policy():
    key = _key(0)
    script = build_redeem_script(EscrowPolicy(1, (key,)))
    assert script.raw == b"\x51\x21" + key.data + b"\x51\xae"


def test_policy_bounds():
    keys = tuple(_key(i) for i in range(3))
    with pytest.raises(PolicyInvalid):
        EscrowPolicy(16, tuple(_key(i) for i in range(16)))
    with pytest.raises(PolicyInvalid):
        EscrowPolicy(0, keys)
    with pytest.raises(PolicyInvalid):
        EscrowPolicy(4, keys)  # m > n
    with pytest.raises(PolicyInvalid):
        EscrowPolicy(2, (keys[0], keys[0], keys[1]))  # duplicate


def test_p2sh_address_golden_frozen():
    redeem = build_redeem_script(golden_policy())
    assert p2sh_address(redeem, TESTNET).text == P2SH_TESTNET
    assert p2sh_address(redeem, MAINNET).text == P2SH_MAINNET


def test_p2sh_versions_differ_same_payload():
    redeem = build_redeem_script(golden_policy())
    testnet = p2sh_address(redeem, TESTNET)
    mainnet = p2sh_address(redeem, MAINNET)
    assert testnet.text != mainnet.text
    assert testnet.payload == mainnet.payload
    assert testnet.text.startswith("2")


def test_p2sh_address_deterministic():
    redeem = build_redeem_script(golden_policy())
    assert p2sh_address(redeem, TESTNET) == p2sh_address(redeem, TESTNET)


def test_pubkey_to_address_goldens():
    pk1, pk2, pk3 = golden_pubkeys()
    assert pubkey_to_address(pk1, TESTNET).text == ADDR_A
    assert pubkey_to_address(pk2, TESTNET).text == ADDR_C
    assert pubkey_to_address(pk3, TESTNET).text == ADDR_R


def test_pubkey_to_address_mainnet_prefix():
    assert pubkey_to_address(PublicKey.from_hex(PK1_HEX), MAINNET).text.startswith("1")


def test_pubkey_to_address_uncompressed_differs():
    key = _key(7)
    assert pubkey_to_address(key, TESTNET) != pubkey_to_address(
        key, TESTNET, compressed=False)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_decode_roundtrips_policy(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    m = data.draw(st.integers(min_value=1, max_value=n))
    start = data.draw(st.integers(min_value=0, max_value=500))
    keys = tuple(_key(start + i) for i in range(n))
    policy = EscrowPolicy(m, keys)
    decoded = decode_script(build_redeem_script(policy), TESTNET)
    assert decoded.kind == "multisig"
    assert decoded.req_sigs == m
    assert [a.text for a in decoded.addresses] == [
        pubkey_to_address(k, TESTNET).text for k in keys]


def test_address_injectivity_over_sample():
    addresses = [pubkey_to_address(_key(i), TESTNET).text for i in range(40)]
    assert len(set(addresses)) == len(addresses)


def test_policy_file_roundtrip(tmp_path):
    policy = golden_policy()
    path = tmp_path / "policy.json"
    path.write_text(dump_policy(policy, TESTNET))
    loaded, network = load_policy(path)
    assert loaded == policy
    assert network == TESTNET


def test_policy_file_rejects_garbage(tmp_path):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({"m": 2, "network": "moonnet", "pubkeys": [PK1_HEX]}))
    with pytest.raises(PolicyInvalid):
        load_policy(path)


@pytest.mark.parametrize("m", ["2", 2.0, 2.7, True, None, float("inf")], ids=repr)
def test_policy_file_needs_integer_m(tmp_path, m):
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({"m": m, "network": "testnet", "pubkeys": [PK1_HEX, PK2_HEX]}))
    with pytest.raises(PolicyInvalid, match="must be of type int"):
        load_policy(path)
