"""One contract lifecycle for both code kinds.

Creating, entering and paying a contract, and running its hooks, are
one step each in :class:`~repro.runtime.runtime.Runtime`, whether the
contract is a registered Python class or raw VM bytecode.  The receipts
below were recorded before those rules were gathered there; the
refactor keeps every one of them except three documented changes:

* Move2's code deposit is charged under ``code_deposit`` (it was
  ``create``; :class:`~repro.ibc.bridge.MovePhases` folds both into
  ``create``, so Fig. 9 does not move);
* a bytecode call charges ``call`` before its refusals, as a
  Python-class call does, so a call to a missing or locked bytecode
  contract pays 21 700 gas (it paid 21 000);
* the five value-transfer refusals share one message.

The last tests pin the typed refusals of a call that names the wrong
code kind, and of a view of a bytecode contract.
"""

import dataclasses

import pytest

from repro.chain.chain import Chain
from repro.chain.params import burrow_params, ethereum_params
from repro.chain.tx import (
    BytecodeCallPayload,
    CallPayload,
    DeployBytecodePayload,
    DeployPayload,
    Move2Payload,
    TransferPayload,
)
from repro.core.registry import ChainRegistry
from repro.crypto.keys import Address
from repro.errors import NotAViewError
from repro.ibc.headers import connect_chains
from repro.lang.movable import MovableContract
from repro.runtime import MapSlot, external, payable, register_contract, view
from repro.vm.assembler import assemble
from repro.vm.gas import BURROW_SCHEDULE, ETHEREUM_SCHEDULE
from tests.helpers import ALICE, BOB, ManualClock, full_move, produce, run_tx

HUGE = 10**30


def short(payer):
    """The one refusal of a value transfer its payer cannot cover (it
    was five messages, one per path)."""
    return f"Revert: insufficient balance for value transfer from {payer}"


SHORT_ALICE = short(ALICE.address)


@register_contract
class Vault(MovableContract):
    """Takes deposits, pays out, and calls other contracts."""

    deposits = MapSlot(Address, int)

    @payable
    def deposit(self) -> int:
        self.deposits[self.msg.sender] = self.deposits[self.msg.sender] + self.msg.value
        return self.deposits[self.msg.sender]

    @external
    def pay_out(self, to: Address, amount: int) -> None:
        self.transfer(to, amount)

    @external
    def poke(self, target: Address, method: str) -> None:
        self.call(target, method)

    @view
    def deposited(self, who: Address) -> int:
        return self.deposits[who]


# Calldata word 0 selects: 3 = MOVE to chain word 1; anything else
# increments slot 0 and returns it.
COUNTER = assemble(
    """
    PUSH1 0
    CALLDATALOAD
    PUSH1 3
    EQ
    PUSH @move
    JUMPI
    PUSH1 0
    SLOAD
    PUSH1 1
    ADD
    DUP1
    PUSH1 0
    SSTORE
    PUSH1 0
    MSTORE
    PUSH1 32
    PUSH1 0
    RETURN
    move:
    PUSH1 32
    CALLDATALOAD
    MOVE
    STOP
    """
)


def word(*values):
    return b"".join(value.to_bytes(32, "big") for value in values)


def summary(receipt):
    """What a receipt pins: outcome, gas split, error and return value
    (every chain here prices gas at 1, so the fee is the gas)."""
    assert receipt.fee_paid == receipt.gas_used
    value = receipt.return_value
    if isinstance(value, Address):
        value = value.raw.hex()
    elif isinstance(value, bytes):
        value = value.hex()
    return (
        receipt.success,
        receipt.gas_used,
        dict(sorted(receipt.gas_by_category.items())),
        receipt.error,
        value,
    )


FLAVOURS = {
    "burrow": lambda: burrow_params(1, gas_price=1),
    "ethereum": lambda: ethereum_params(2, gas_price=1),
    "burrow-dedup": lambda: burrow_params(
        1, gas_price=1,
        gas_schedule=dataclasses.replace(BURROW_SCHEDULE, code_deposit_dedup=True),
    ),
    "ethereum-dedup": lambda: ethereum_params(
        2, gas_price=1,
        gas_schedule=dataclasses.replace(ETHEREUM_SCHEDULE, code_deposit_dedup=True),
    ),
}


def lifecycle(params):
    """Every creation, entry and value path on one chain, in order."""
    chain = Chain(params)
    chain.fund({ALICE.address: 10**12})
    clock = ManualClock()
    receipts = {}

    def tx(name, payload, keypair=ALICE):
        receipts[name] = receipt = run_tx(chain, clock, keypair, payload)
        return receipt.return_value

    tx("transfer", TransferPayload(BOB.address, 1_000))
    vault = tx("deploy", DeployPayload(Vault.CODE_HASH, value=500))
    tx("deploy-create2", DeployPayload(Vault.CODE_HASH, value=500, salt=7))
    counter = tx("deploy-bytecode", DeployBytecodePayload(COUNTER, value=300))
    tx("deploy-bytecode-create2", DeployBytecodePayload(COUNTER, value=300, salt=7))
    tx("call", CallPayload(vault, "deposit", (), 50))
    tx("call-bytecode", BytecodeCallPayload(counter, word(1), 40))
    tx("pay-out", CallPayload(vault, "pay_out", (BOB.address, 10)))
    tx("transfer-short", TransferPayload(BOB.address, HUGE))
    tx("deploy-short", DeployPayload(Vault.CODE_HASH, value=HUGE))
    tx("deploy-bytecode-short", DeployBytecodePayload(COUNTER, value=HUGE))
    tx("call-short", CallPayload(vault, "deposit", (), HUGE))
    tx("call-bytecode-short", BytecodeCallPayload(counter, word(1), HUGE))
    tx("pay-out-short", CallPayload(vault, "pay_out", (BOB.address, HUGE)))
    tx("call-missing", CallPayload(Address(b"\x01" * 20), "deposit"))
    tx("call-bytecode-missing", BytecodeCallPayload(Address(b"\x01" * 20), word(1)))
    tx("call-bytecode-move", BytecodeCallPayload(counter, word(3, 9)))
    tx("call-bytecode-locked", BytecodeCallPayload(counter, word(1)))
    return {name: summary(receipt) for name, receipt in receipts.items()}


def moves():
    """A Move2 that creates the record (of each code kind), and one that
    reactivates a relic."""
    registry = ChainRegistry()
    burrow = Chain(burrow_params(1, gas_price=1), registry)
    ethereum = Chain(ethereum_params(2, gas_price=1), registry)
    connect_chains([burrow, ethereum])
    for chain in (burrow, ethereum):
        chain.fund({ALICE.address: 10**12})
    clock = ManualClock()
    receipts = {}

    vault = run_tx(burrow, clock, ALICE, DeployPayload(Vault.CODE_HASH, value=500)).return_value
    receipts["move2-create"] = full_move(burrow, ethereum, clock, ALICE, vault)
    receipts["move2-reactivate"] = full_move(ethereum, burrow, clock, ALICE, vault)

    counter = run_tx(burrow, clock, ALICE, DeployBytecodePayload(COUNTER, value=300)).return_value
    moved = run_tx(burrow, clock, ALICE, BytecodeCallPayload(counter, word(3, ethereum.chain_id)))
    assert moved.success, moved.error
    while burrow.height < burrow.proof_ready_height(moved.block_height):
        produce(burrow, clock)
    bundle = burrow.prove_contract_at(counter, moved.block_height)
    receipts["move2-bytecode"] = run_tx(ethereum, clock, ALICE, Move2Payload(bundle))
    return {name: summary(receipt) for name, receipt in receipts.items()}


EXPECTED = {
    "burrow": {
        "transfer": (
            True, 21000, {"execution": 21000},
            None, None,
        ),
        "deploy": (
            True, 73000, {"code_deposit": 0, "create": 32000, "execution": 41000},
            None, "8cd5c0b86cc7a45f017190f962483646fee421ae",
        ),
        "deploy-create2": (
            True, 73000, {"code_deposit": 0, "create": 32000, "execution": 41000},
            None, "03b19c04885cf7987aa32ceb1be7a0c2550811ac",
        ),
        "deploy-bytecode": (
            True, 53000, {"code_deposit": 0, "create": 32000, "execution": 21000},
            None, "44f9f68dcd7f633db43c95f9ebdc127a7ff49698",
        ),
        "deploy-bytecode-create2": (
            True, 53000, {"code_deposit": 0, "create": 32000, "execution": 21000},
            None, "fb7700e6bb451c17dc5d0bf7111abf5614c9fb56",
        ),
        "call": (
            True, 42100, {"execution": 42100},
            None, 50,
        ),
        "call-bytecode": (
            True, 41955, {"execution": 41955},
            None, "0000000000000000000000000000000000000000000000000000000000000001",
        ),
        "pay-out": (
            True, 21700, {"execution": 21700},
            None, None,
        ),
        "transfer-short": (
            False, 21000, {"execution": 21000},
            SHORT_ALICE, None,
        ),
        "deploy-short": (
            False, 53000, {"code_deposit": 0, "create": 32000, "execution": 21000},
            SHORT_ALICE, None,
        ),
        "deploy-bytecode-short": (
            False, 53000, {"code_deposit": 0, "create": 32000, "execution": 21000},
            SHORT_ALICE, None,
        ),
        "call-short": (
            False, 21700, {"execution": 21700},
            SHORT_ALICE, None,
        ),
        "call-bytecode-short": (
            False, 21700, {"execution": 21700},
            SHORT_ALICE, None,
        ),
        "pay-out-short": (
            False, 21700, {"execution": 21700},
            short("0x8cd5c0b86cc7a45f017190f962483646fee421ae"), None,
        ),
        "call-missing": (
            False, 21700, {"execution": 21700},
            "Revert: no contract at 0x0101010101010101010101010101010101010101", None,
        ),
        "call-bytecode-missing": (
            False, 21700, {"execution": 21700},  # was 21 000: call gas first
            "Revert: no contract at 0x0101010101010101010101010101010101010101", None,
        ),
        "call-bytecode-move": (
            True, 26732, {"execution": 26732},
            None, "",
        ),
        "call-bytecode-locked": (
            False, 21700, {"execution": 21700},  # was 21 000: call gas first
            (
                "ContractLocked: contract 0x44f9f68dcd7f633db43c95f9ebdc127a7ff49698"
                " moved to chain 9"
            ), None,
        ),
    },
    "ethereum": {
        "transfer": (
            True, 21000, {"execution": 21000},
            None, None,
        ),
        "deploy": (
            True, 199600, {"code_deposit": 126600, "create": 32000, "execution": 41000},
            None, "515fcb3886a8a1520030aa473dad437f2eb8ed7c",
        ),
        "deploy-create2": (
            True, 199600, {"code_deposit": 126600, "create": 32000, "execution": 41000},
            None, "eaef374e95bf171de3706ad76ac080fc3ff5c25e",
        ),
        "deploy-bytecode": (
            True, 59800, {"code_deposit": 6800, "create": 32000, "execution": 21000},
            None, "30420328ea1eb5a59bc333875029ab13823c4cc3",
        ),
        "deploy-bytecode-create2": (
            True, 59800, {"code_deposit": 6800, "create": 32000, "execution": 21000},
            None, "c16e36484a5a72070d7e1ca34df1e941d3776369",
        ),
        "call": (
            True, 42100, {"execution": 42100},
            None, 50,
        ),
        "call-bytecode": (
            True, 41955, {"execution": 41955},
            None, "0000000000000000000000000000000000000000000000000000000000000001",
        ),
        "pay-out": (
            True, 21700, {"execution": 21700},
            None, None,
        ),
        "transfer-short": (
            False, 21000, {"execution": 21000},
            SHORT_ALICE, None,
        ),
        "deploy-short": (
            False, 179600, {"code_deposit": 126600, "create": 32000, "execution": 21000},
            SHORT_ALICE, None,
        ),
        "deploy-bytecode-short": (
            False, 59800, {"code_deposit": 6800, "create": 32000, "execution": 21000},
            SHORT_ALICE, None,
        ),
        "call-short": (
            False, 21700, {"execution": 21700},
            SHORT_ALICE, None,
        ),
        "call-bytecode-short": (
            False, 21700, {"execution": 21700},
            SHORT_ALICE, None,
        ),
        "pay-out-short": (
            False, 21700, {"execution": 21700},
            short("0x515fcb3886a8a1520030aa473dad437f2eb8ed7c"), None,
        ),
        "call-missing": (
            False, 21700, {"execution": 21700},
            "Revert: no contract at 0x0101010101010101010101010101010101010101", None,
        ),
        "call-bytecode-missing": (
            False, 21700, {"execution": 21700},  # was 21 000: call gas first
            "Revert: no contract at 0x0101010101010101010101010101010101010101", None,
        ),
        "call-bytecode-move": (
            True, 26732, {"execution": 26732},
            None, "",
        ),
        "call-bytecode-locked": (
            False, 21700, {"execution": 21700},  # was 21 000: call gas first
            (
                "ContractLocked: contract 0x30420328ea1eb5a59bc333875029ab13823c4cc3"
                " moved to chain 9"
            ), None,
        ),
    },
    "burrow-dedup": {
        "transfer": (
            True, 21000, {"execution": 21000},
            None, None,
        ),
        "deploy": (
            True, 73000, {"code_deposit": 0, "create": 32000, "execution": 41000},
            None, "8cd5c0b86cc7a45f017190f962483646fee421ae",
        ),
        "deploy-create2": (
            True, 73000, {"create": 32000, "execution": 41000},
            None, "03b19c04885cf7987aa32ceb1be7a0c2550811ac",
        ),
        "deploy-bytecode": (
            True, 53000, {"code_deposit": 0, "create": 32000, "execution": 21000},
            None, "44f9f68dcd7f633db43c95f9ebdc127a7ff49698",
        ),
        "deploy-bytecode-create2": (
            True, 53000, {"create": 32000, "execution": 21000},
            None, "fb7700e6bb451c17dc5d0bf7111abf5614c9fb56",
        ),
        "call": (
            True, 42100, {"execution": 42100},
            None, 50,
        ),
        "call-bytecode": (
            True, 41955, {"execution": 41955},
            None, "0000000000000000000000000000000000000000000000000000000000000001",
        ),
        "pay-out": (
            True, 21700, {"execution": 21700},
            None, None,
        ),
        "transfer-short": (
            False, 21000, {"execution": 21000},
            SHORT_ALICE, None,
        ),
        "deploy-short": (
            False, 53000, {"create": 32000, "execution": 21000},
            SHORT_ALICE, None,
        ),
        "deploy-bytecode-short": (
            False, 53000, {"create": 32000, "execution": 21000},
            SHORT_ALICE, None,
        ),
        "call-short": (
            False, 21700, {"execution": 21700},
            SHORT_ALICE, None,
        ),
        "call-bytecode-short": (
            False, 21700, {"execution": 21700},
            SHORT_ALICE, None,
        ),
        "pay-out-short": (
            False, 21700, {"execution": 21700},
            short("0x8cd5c0b86cc7a45f017190f962483646fee421ae"), None,
        ),
        "call-missing": (
            False, 21700, {"execution": 21700},
            "Revert: no contract at 0x0101010101010101010101010101010101010101", None,
        ),
        "call-bytecode-missing": (
            False, 21700, {"execution": 21700},  # was 21 000: call gas first
            "Revert: no contract at 0x0101010101010101010101010101010101010101", None,
        ),
        "call-bytecode-move": (
            True, 26732, {"execution": 26732},
            None, "",
        ),
        "call-bytecode-locked": (
            False, 21700, {"execution": 21700},  # was 21 000: call gas first
            (
                "ContractLocked: contract 0x44f9f68dcd7f633db43c95f9ebdc127a7ff49698"
                " moved to chain 9"
            ), None,
        ),
    },
    "ethereum-dedup": {
        "transfer": (
            True, 21000, {"execution": 21000},
            None, None,
        ),
        "deploy": (
            True, 199600, {"code_deposit": 126600, "create": 32000, "execution": 41000},
            None, "515fcb3886a8a1520030aa473dad437f2eb8ed7c",
        ),
        "deploy-create2": (
            True, 73000, {"create": 32000, "execution": 41000},
            None, "eaef374e95bf171de3706ad76ac080fc3ff5c25e",
        ),
        "deploy-bytecode": (
            True, 59800, {"code_deposit": 6800, "create": 32000, "execution": 21000},
            None, "30420328ea1eb5a59bc333875029ab13823c4cc3",
        ),
        "deploy-bytecode-create2": (
            True, 53000, {"create": 32000, "execution": 21000},
            None, "c16e36484a5a72070d7e1ca34df1e941d3776369",
        ),
        "call": (
            True, 42100, {"execution": 42100},
            None, 50,
        ),
        "call-bytecode": (
            True, 41955, {"execution": 41955},
            None, "0000000000000000000000000000000000000000000000000000000000000001",
        ),
        "pay-out": (
            True, 21700, {"execution": 21700},
            None, None,
        ),
        "transfer-short": (
            False, 21000, {"execution": 21000},
            SHORT_ALICE, None,
        ),
        "deploy-short": (
            False, 53000, {"create": 32000, "execution": 21000},
            SHORT_ALICE, None,
        ),
        "deploy-bytecode-short": (
            False, 53000, {"create": 32000, "execution": 21000},
            SHORT_ALICE, None,
        ),
        "call-short": (
            False, 21700, {"execution": 21700},
            SHORT_ALICE, None,
        ),
        "call-bytecode-short": (
            False, 21700, {"execution": 21700},
            SHORT_ALICE, None,
        ),
        "pay-out-short": (
            False, 21700, {"execution": 21700},
            short("0x515fcb3886a8a1520030aa473dad437f2eb8ed7c"), None,
        ),
        "call-missing": (
            False, 21700, {"execution": 21700},
            "Revert: no contract at 0x0101010101010101010101010101010101010101", None,
        ),
        "call-bytecode-missing": (
            False, 21700, {"execution": 21700},  # was 21 000: call gas first
            "Revert: no contract at 0x0101010101010101010101010101010101010101", None,
        ),
        "call-bytecode-move": (
            True, 26732, {"execution": 26732},
            None, "",
        ),
        "call-bytecode-locked": (
            False, 21700, {"execution": 21700},  # was 21 000: call gas first
            (
                "ContractLocked: contract 0x30420328ea1eb5a59bc333875029ab13823c4cc3"
                " moved to chain 9"
            ), None,
        ),
    },
    "moves": {
        "move2-create": (
            # the code deposit was charged under "create"
            True, 219862, {"code_deposit": 126600, "create": 32000, "move2": 61262},
            None, None,
        ),
        "move2-reactivate": (
            True, 66364, {"move2": 66364},
            None, None,
        ),
        "move2-bytecode": (
            # the code deposit was charged under "create"
            True, 59948, {"code_deposit": 6800, "create": 32000, "move2": 21148},
            None, None,
        ),
    },
}


@pytest.mark.parametrize("flavour", list(FLAVOURS))
def test_every_creation_entry_and_payment_keeps_its_receipt(flavour):
    assert lifecycle(FLAVOURS[flavour]()) == EXPECTED[flavour]


def test_move2_recreation_and_reactivation_keep_their_receipts():
    assert moves() == EXPECTED["moves"]


@pytest.fixture
def deployed():
    chain = Chain(burrow_params(1))
    chain.fund({ALICE.address: 10**12})
    clock = ManualClock()
    vault = run_tx(chain, clock, ALICE, DeployPayload(Vault.CODE_HASH)).return_value
    counter = run_tx(chain, clock, ALICE, DeployBytecodePayload(COUNTER)).return_value
    return chain, clock, vault, counter


def _faults(chain):
    return chain.telemetry.metrics.counter(
        "chain_tx_faults_total", chain=chain.chain_id, kind="CodeNotFound"
    ).value


def test_a_method_call_to_a_bytecode_contract_is_a_typed_refusal(deployed):
    chain, clock, vault, counter = deployed
    error = f"Revert: {counter} is a bytecode contract: call it with a BytecodeCallPayload"
    receipt = run_tx(chain, clock, ALICE, CallPayload(counter, "deposit"))
    assert (receipt.success, receipt.error, receipt.gas_used) == (False, error, 21_700)
    # The same refusal when a contract's own code makes the call.
    receipt = run_tx(chain, clock, ALICE, CallPayload(vault, "poke", (counter, "deposit")))
    assert (receipt.success, receipt.error) == (False, error)
    assert _faults(chain) == 0


def test_a_bytecode_call_to_a_python_contract_is_a_typed_refusal(deployed):
    chain, clock, vault, _counter = deployed
    receipt = run_tx(chain, clock, ALICE, BytecodeCallPayload(vault, word(1)))
    error = f"Revert: {vault} is a Vault contract: call it with a CallPayload"
    assert (receipt.success, receipt.error, receipt.gas_used) == (False, error, 21_700)


def test_a_view_of_a_bytecode_contract_is_not_a_view(deployed):
    chain, _clock, vault, counter = deployed
    assert chain.view(vault, "deposited", ALICE.address) == 0
    with pytest.raises(NotAViewError, match="bytecode contract"):
        chain.view(counter, "get")
