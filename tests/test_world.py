"""world.py builds escrows without eaward, and eaward derives from them
what refcrypto does."""

from pathlib import Path

import pytest

from eaward.crypto import TESTNET
from eaward.escrow import build_redeem_script, p2sh_address
from eaward.tx import compute_txid

from conftest import build_world, read_world, refcrypto, run_python

WORLD = Path(__file__).resolve().parent / "world.py"


def test_world_imports_no_eaward_module():
    # eaward is importable in the child; building a world must not import
    # it. -S keeps site, and any hook it runs, out of the child.
    script = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('world', {str(WORLD)!r})\n"
        "world = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(world)\n"
        "world.build_world()\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'eaward'))\n"
    )
    proc = run_python("-S", "-c", script)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


@pytest.mark.parametrize("seed", ["synthetic escrow", "records ", "records 00ff",
                                  "records deadbeef01", "workflow demo"])
def test_eaward_derives_txid_and_escrow_address_as_refcrypto(seed):
    world = build_world(seed)
    case = read_world(world)
    assert compute_txid(case.tx).hex() == refcrypto.txid_hex(bytes.fromhex(world.spend_hex))
    pubkeys = [bytes.fromhex(k) for k in world.agreement["policy"]["pubkeys"]]
    script_hash = refcrypto.hash160(refcrypto.multisig_script(2, pubkeys))
    assert (p2sh_address(build_redeem_script(case.agreement.policy), TESTNET).text
            == refcrypto.b58check(refcrypto.TESTNET_P2SH, script_hash))
