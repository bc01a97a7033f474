"""A record that is not the active copy here refuses every write.

The paper's Move1 rule (§III-B): once ``L_c := B_j``, transactions that
would mutate the contract on ``B_i`` abort.  ``WorldState`` holds that
rule at the writers themselves, so a plain value transfer or a
contract's native ``transfer`` is refused like a call; and every leaf
field is range-checked at its writer, so no transaction can hand the
commit a value it cannot encode and halt the chain.
"""

import pytest

from repro.chain.chain import Chain
from repro.chain.executor import TransactionExecutor
from repro.chain.params import burrow_params
from repro.chain.tx import (
    BytecodeCallPayload,
    CallPayload,
    DeployBytecodePayload,
    Move1Payload,
    TransferPayload,
    sign_transaction,
)
from repro.core.registry import ChainRegistry
from repro.crypto.hashing import keccak_code
from repro.crypto.keys import Address, create2_address
from repro.errors import ContractLocked, ReadOnlyReplicaError, StateError
from repro.runtime import Contract, payable, register_contract
from repro.runtime.contract import MapSlot, Slot, encode_value
from repro.vm.opcodes import Op
from tests.helpers import (
    ALICE,
    BOB,
    DeployPayload,
    ManualClock,
    deploy_store,
    make_chain_pair,
    produce,
    run_tx,
)
from tests.unit.test_ibc_bridge import bridge_world, deploy  # noqa: F401 (fixture)
from tests.unit.test_replica_write_rejection import _mirrored_pair

#: the smallest chain id the 8-byte ``L_c`` leaf field cannot hold
TOO_FAR = 2**64


@register_contract
class Forwarder(Contract):
    """Pays what it receives on to another account."""

    @payable
    def forward(self, to: Address) -> None:
        self.transfer(to, self.msg.value)


def _locked_store():
    """A StoreContract on chain 1 that Move1 locked toward chain 2."""
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    burrow.fund({ALICE.address: 10**12, BOB.address: 10**12})
    store = deploy_store(burrow, clock, ALICE)
    moved = run_tx(burrow, clock, ALICE, Move1Payload(store, ethereum.chain_id))
    assert moved.success, moved.error
    return burrow, clock, store


def test_transfer_to_a_relic_is_refused():
    burrow, clock, store = _locked_store()
    receipt = run_tx(burrow, clock, BOB, TransferPayload(store, 1))
    assert not receipt.success
    assert receipt.error.startswith("ContractLocked:")
    assert burrow.state.balance_of(store) == 0
    with pytest.raises(ContractLocked):
        burrow.state.add_balance(store, 1)


def test_contract_transfer_to_a_relic_is_refused():
    burrow, clock, store = _locked_store()
    deployed = run_tx(burrow, clock, BOB, DeployPayload(code_hash=Forwarder.CODE_HASH))
    forwarder = deployed.return_value
    receipt = run_tx(burrow, clock, BOB, CallPayload(forwarder, "forward", (store,), 5))
    assert not receipt.success
    assert receipt.error.startswith("ContractLocked:")
    assert burrow.state.balance_of(store) == 0
    assert burrow.state.balance_of(forwarder) == 0


def test_credit_to_a_mirror_is_refused():
    _source, target, clock, address = _mirrored_pair()
    target.fund({BOB.address: 10**12})
    receipt = run_tx(target, clock, BOB, TransferPayload(address, 1))
    assert not receipt.success
    assert receipt.error.startswith("ReadOnlyReplicaError:")
    with pytest.raises(ReadOnlyReplicaError):
        target.state.add_balance(address, 1)


def test_bridge_move_completes_after_a_transfer_to_the_relic_is_refused(bridge_world):
    # A transfer landing between Move1 and the proof used to change the
    # relic's leaf, so the captured proof no longer matched the head and
    # the contract stayed locked with no copy anywhere.
    sim, a, b, bridge = bridge_world
    a.fund({BOB.address: 10**12})
    store = deploy(sim, a, bridge)
    done = []
    phases = bridge.move_contract(ALICE, store, 1, 2, on_done=done.append)
    while phases.move1_included_at is None:
        sim.run(until=sim.now + 1.0)
    credit = sign_transaction(BOB, TransferPayload(store, 1))
    refused = []
    a.wait_for(credit.tx_id, refused.append)
    a.submit(credit)
    sim.run(until=sim.now + 300.0)
    assert done and done[0].success, done and done[0].error
    assert refused and refused[0].error.startswith("ContractLocked:")
    assert b.location_of(store) == b.chain_id


def test_move1_to_an_unencodable_chain_fails_and_the_chain_goes_on():
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    store = deploy_store(burrow, clock, ALICE)
    receipt = run_tx(burrow, clock, ALICE, Move1Payload(store, TOO_FAR))
    assert not receipt.success
    assert str(TOO_FAR) in receipt.error
    assert not burrow.state.is_locked(store)
    produce(burrow, clock)


def test_op_move_to_an_unencodable_chain_fails_and_the_chain_goes_on():
    burrow, _ethereum = make_chain_pair()
    clock = ManualClock()
    code = bytes([Op.PUSH32]) + TOO_FAR.to_bytes(32, "big") + bytes([Op.MOVE, Op.STOP])
    deployed = run_tx(burrow, clock, BOB, DeployBytecodePayload(code, salt=1))
    assert deployed.success, deployed.error
    mover = create2_address(burrow.chain_id, BOB.address, 1, keccak_code(code))
    assert deployed.return_value == mover
    receipt = run_tx(burrow, clock, BOB, BytecodeCallPayload(mover))
    assert not receipt.success
    assert str(TOO_FAR) in receipt.error
    assert not burrow.state.is_locked(mover)
    produce(burrow, clock)


def test_fund_refuses_a_balance_the_leaf_cannot_hold():
    burrow, _ethereum = make_chain_pair()
    clock = ManualClock()
    with pytest.raises(StateError):
        burrow.fund({ALICE.address: 2**256})
    with pytest.raises(StateError):  # atomic: BOB is not credited either
        burrow.fund({BOB.address: 1, ALICE.address: 2**256})
    assert burrow.state.balance_of(BOB.address) == 0
    produce(burrow, clock)


def test_credit_past_the_balance_field_fails_and_the_chain_goes_on():
    burrow, _ethereum = make_chain_pair()
    clock = ManualClock()
    burrow.fund({ALICE.address: 2**256 - 1, BOB.address: 10})
    receipt = run_tx(burrow, clock, ALICE, TransferPayload(BOB.address, 2**256 - 1))
    assert not receipt.success
    assert receipt.error.startswith("ContractFault(StateError)")
    assert burrow.state.balance_of(BOB.address) == 10
    produce(burrow, clock)


def test_full_fee_pool_takes_no_fee_and_the_chain_goes_on():
    burrow = Chain(burrow_params(1, gas_price=1), ChainRegistry())
    pool = TransactionExecutor.FEE_POOL
    burrow.fund({ALICE.address: 10**9, pool: 2**256 - 1})
    receipt = run_tx(burrow, ManualClock(), ALICE, TransferPayload(BOB.address, 1))
    assert receipt.success and receipt.fee_paid == 0
    assert burrow.state.balance_of(pool) == 2**256 - 1


def test_typed_slot_refuses_a_value_of_another_kind():
    burrow, _ethereum = make_chain_pair()
    clock = ManualClock()
    store = deploy_store(burrow, clock, ALICE)
    receipt = run_tx(burrow, clock, ALICE, CallPayload(store, "put", (1, b"x")))
    assert not receipt.success
    assert receipt.error.startswith("ContractFault(TypeError)")
    assert burrow.view(store, "get_value", 1) == 0


@pytest.mark.parametrize(
    "value, kind, raw",
    [
        (True, int, b"\x01"),
        (False, int, b""),
        (5, int, (5).to_bytes(32, "big")),
        (None, Address, b""),
        (ALICE.address, Address, ALICE.address.raw),
        (True, bool, b"\x01"),
        (b"ab", bytes, b"ab"),
    ],
)
def test_typed_slot_keeps_the_bytes_of_what_it_holds(value, kind, raw):
    assert encode_value(value, kind) == encode_value(value) == raw


@pytest.mark.parametrize(
    "value, kind",
    [(b"x", int), (None, int), ("1", int), (1, bool), (b"\x01" * 20, Address), (None, bytes)],
)
def test_typed_slot_refuses_what_would_not_read_back(value, kind):
    with pytest.raises(TypeError, match="slot cannot hold"):
        encode_value(value, kind)


@pytest.mark.parametrize("kind", ["anything", str, float, bytearray, type(None)])
def test_encode_value_refuses_a_kind_it_cannot_read_back(kind):
    with pytest.raises(TypeError, match="cannot read it back"):
        encode_value(b"x", kind)


@pytest.mark.parametrize(
    "slot_class, kinds",
    [
        (Slot, ("ticks",)),  # the name where the kind goes
        (Slot, (str,)),
        (Slot, (float,)),
        (MapSlot, (int, str)),
        (MapSlot, (float, int)),
        (MapSlot, (tuple, int)),
    ],
    ids=["name-as-kind", "str", "float", "str-values", "float-keys", "tuple-keys"],
)
def test_slot_of_a_kind_it_cannot_store_is_refused_at_class_creation(slot_class, kinds):
    with pytest.raises(TypeError, match="kind must be one of"):

        class Roamer(Contract):
            ticks = slot_class(*kinds)


def test_every_storable_kind_declares():
    for kind in (int, bool, Address, bytes):
        assert Slot(kind).kind is kind
        for key_kind in (Address, bool, int, bytes, bytearray, str):
            slot = MapSlot(key_kind, kind)
            assert (slot.key_kind, slot.value_kind) == (key_kind, kind)
