"""Hostile/malformed transactions must fail cleanly, never crash a node."""

import pytest

from repro.chain.tx import (
    CallPayload,
    DeployPayload,
    Move2Payload,
    TransferPayload,
    sign_transaction,
)
from repro.crypto.keys import KeyPair
from repro.errors import StateError
from repro.runtime import Contract, Slot, external, payable, register_contract
from repro.runtime.context import BlockEnv
from tests.helpers import (
    ALICE,
    BOB,
    ManualClock,
    StoreContract,
    deploy_store,
    make_chain_pair,
    produce,
    run_tx,
)


@register_contract
class HalfWriter(Contract):
    """Writes a slot, then faults."""

    a = Slot(int)

    @external
    def half(self):
        self.a = 42
        raise RuntimeError("deliberate fault after a write")


@pytest.fixture
def world():
    burrow, _ethereum = make_chain_pair()
    clock = ManualClock()
    addr = deploy_store(burrow, clock, ALICE)
    return burrow, clock, addr


def test_wrong_argument_count_fails_cleanly(world):
    burrow, clock, addr = world
    receipt = run_tx(burrow, clock, ALICE, CallPayload(addr, "put", (1, 2, 3, 4)))
    assert not receipt.success
    assert "ContractFault" in receipt.error
    # The chain is alive and consistent afterwards.
    assert run_tx(burrow, clock, ALICE, CallPayload(addr, "put", (1, 2))).success


def test_wrong_argument_types_fail_cleanly(world):
    burrow, clock, addr = world
    receipt = run_tx(burrow, clock, ALICE, CallPayload(addr, "put", ("not-an-int", {})))
    assert not receipt.success
    assert run_tx(burrow, clock, BOB, CallPayload(addr, "get_value", (1,))).success


def test_malformed_move2_bundle_fails_cleanly(world):
    burrow, clock, _addr = world

    class FakeBundle:
        """Quacks enough to be signed, explodes when executed."""

        location = 1

        def signing_fields(self):
            return ("fake",)

        def size_bytes(self):
            raise RuntimeError("boom")

    receipt = run_tx(burrow, clock, BOB, Move2Payload(bundle=FakeBundle()))
    assert not receipt.success
    assert "ContractFault" in receipt.error or "MoveError" in receipt.error


def test_fault_reverts_partial_state(world):
    burrow, clock, addr = world
    deploy = run_tx(burrow, clock, ALICE, DeployPayload(code_hash=HalfWriter.CODE_HASH))
    target = deploy.return_value
    receipt = run_tx(burrow, clock, ALICE, CallPayload(target, "half"))
    assert not receipt.success
    # The partial write rolled back with the fault.
    record = burrow.state.contract(target)
    assert record.storage == {}


def _state_image(state):
    """Everything a transaction can change, as plain values."""
    return (
        {address: (r.balance, r.nonce) for address, r in state.accounts.items()},
        {
            address: (r.balance, r.location, r.move_nonce, dict(r.storage))
            for address, r in state.contracts.items()
        },
        dict(state.code_store),
    )


def test_undo_journal_ends_with_each_transaction(world):
    burrow, clock, addr = world
    deploy = run_tx(burrow, clock, ALICE, DeployPayload(code_hash=HalfWriter.CODE_HASH))
    burrow.fund({BOB.address: 100})
    state, executor = burrow.state, burrow.executor
    env = BlockEnv(chain_id=burrow.chain_id, height=burrow.height + 1, timestamp=clock.tick())
    newcomer = KeyPair.from_name("journal-newcomer").address
    cases = [
        (ALICE, CallPayload(addr, "put", (1, 2)), True),  # a slot write
        (BOB, TransferPayload(newcomer, 5), True),  # creates an account
        (ALICE, CallPayload(deploy.return_value, "half"), False),  # write, then fault
        (BOB, TransferPayload(newcomer, 10**9), False),  # refused before any write
        (ALICE, CallPayload(addr, "put", (1, 2, 3)), False),  # malformed call
        (ALICE, DeployPayload(code_hash=StoreContract.CODE_HASH), True),  # a new contract
    ]
    for keypair, payload, ok in cases:
        before = _state_image(state)
        receipt = executor.execute(sign_transaction(keypair, payload), env)
        assert receipt.success is ok, receipt.error
        assert state.snapshot() == 0, "a transaction's undo journal outlived it"
        if not ok:
            assert _state_image(state) == before  # reverted exactly
    assert state.contract(deploy.return_value).storage == {}
    assert state.balance_of(newcomer) == 5


def test_deeply_nested_recursion_fails_cleanly(world):
    burrow, clock, _addr = world

    @register_contract
    class Recurser(Contract):
        """Calls itself until the depth limit trips."""

        @external
        def spin(self):
            return self.call(self.address, "spin")

    deploy = run_tx(burrow, clock, ALICE, DeployPayload(code_hash=Recurser.CODE_HASH))
    receipt = run_tx(burrow, clock, ALICE, CallPayload(deploy.return_value, "spin"))
    assert not receipt.success
    assert "depth" in receipt.error


# ----------------------------------------------------------------------
# Values the state cannot commit fail the transaction, not the chain
# ----------------------------------------------------------------------


@register_contract
class TipJar(Contract):
    """Takes any tip."""

    @payable
    def tip(self):
        return None


def _faults(chain, kind):
    return chain.telemetry.metrics.counter(
        "chain_tx_faults_total", chain=chain.chain_id, kind=kind
    ).value


def _commits_past(chain, clock, payload):
    """Sign ``payload`` from a funded ALICE, include it, and check the
    transaction failed as a StateError fault while the chain went on
    committing; returns the failed receipt."""
    chain.fund({ALICE.address: 1_000})
    height, before = chain.height, _state_image(chain.state)
    tx = sign_transaction(ALICE, payload)
    assert chain.submit(tx)
    produce(chain, clock)  # used to raise inside WorldState.commit
    produce(chain, clock)
    assert chain.height == height + 2
    chain.verify_chain()
    receipt = chain.receipts[tx.tx_id]
    assert not receipt.success
    assert receipt.error.startswith("ContractFault(StateError)")
    assert _state_image(chain.state) == before
    assert _faults(chain, "StateError") == 1
    return receipt


def test_float_transfer_amount_fails_and_the_chain_commits(world):
    burrow, clock, _addr = world
    receipt = _commits_past(burrow, clock, TransferPayload(BOB.address, 1.5))
    assert "int" in receipt.error


def test_bytes_transfer_target_fails_and_the_chain_commits(world):
    burrow, clock, _addr = world
    receipt = _commits_past(burrow, clock, TransferPayload(BOB.address.raw, 5))
    assert "Address" in receipt.error


def test_hex_str_transfer_target_fails_and_the_chain_commits(world):
    burrow, clock, _addr = world
    _commits_past(burrow, clock, TransferPayload(BOB.address.hex, 5))


def test_one_tuple_transfer_target_fails_and_the_chain_commits(world):
    # Equal to BOB's Address and hashing like it, but not one.
    burrow, clock, _addr = world
    _commits_past(burrow, clock, TransferPayload((BOB.address.raw,), 5))


def test_float_call_value_fails_and_the_chain_commits(world):
    burrow, clock, _addr = world
    jar = run_tx(burrow, clock, ALICE, DeployPayload(code_hash=TipJar.CODE_HASH))
    assert jar.success, jar.error
    assert run_tx(burrow, clock, ALICE, CallPayload(jar.return_value, "tip")).success
    _commits_past(burrow, clock, CallPayload(jar.return_value, "tip", value=0.5))


@pytest.mark.parametrize(
    "address, amount",
    [(BOB.address.raw, 1), (BOB.address.hex, 1), ((BOB.address.raw,), 1),
     (BOB.address, 1.0), (BOB.address, True), (BOB.address, "1")],
    ids=["bytes", "hex", "1-tuple", "float", "bool", "str"],
)
def test_balances_take_only_an_address_and_an_int(address, amount):
    burrow, _ethereum = make_chain_pair()
    burrow.fund({BOB.address: 10})
    for operation in (burrow.state.add_balance, burrow.state.sub_balance):
        with pytest.raises(StateError):
            operation(address, amount)
    assert burrow.state.balance_of(BOB.address) == 10


def test_contract_faults_are_counted_by_exception_type(world):
    burrow, clock, addr = world
    deploy = run_tx(burrow, clock, ALICE, DeployPayload(code_hash=HalfWriter.CODE_HASH))
    faulty = [
        CallPayload(deploy.return_value, "half"),  # RuntimeError in the contract
        CallPayload(deploy.return_value, "half"),
        CallPayload(addr, "put", (1, 2, 3)),  # TypeError: wrong arity
    ]
    for payload in faulty:
        assert not run_tx(burrow, clock, ALICE, payload).success
    assert not run_tx(burrow, clock, BOB, TransferPayload(ALICE.address, 10**9)).success
    assert _faults(burrow, "RuntimeError") == 2
    assert _faults(burrow, "TypeError") == 1
    # An ordinary abort (a Revert) is not a fault.
    assert _faults(burrow, "Revert") == 0
