"""Unit tests for the high-level contract runtime."""

import pytest

from repro.crypto.hashing import keccak
from repro.crypto.keys import Address, KeyPair, create2_address
from repro.errors import ContractLocked, OutOfGas, Revert
from repro.merkle.iavl import IAVLTree
from repro.runtime import (
    BlockEnv,
    Contract,
    MapSlot,
    Runtime,
    Slot,
    external,
    payable,
    register_contract,
    view,
)
from repro.runtime.context import Msg
from repro.runtime.contract import require
from repro.statedb.state import WorldState
from repro.vm.gas import ETHEREUM_SCHEDULE, GasMeter

ALICE = KeyPair.from_name("alice").address
BOB = KeyPair.from_name("bob").address
ENV = BlockEnv(chain_id=1, height=1, timestamp=100.0)


@register_contract
class Counter(Contract):
    count = Slot(int)
    owner = Slot(Address)

    def init(self, start=0):
        self.count = start
        self.owner = self.msg.sender

    @external
    def bump(self):
        self.count += 1
        return self.count

    @external
    def owner_only_reset(self):
        require(self.msg.sender == self.owner, "not owner")
        self.count = 0

    @view
    def peek(self):
        return self.count

    def move_to(self, target_chain):
        require(self.msg.sender == self.owner, "only owner moves")


@register_contract
class Wallet(Contract):
    deposits = MapSlot(Address, int)

    @payable
    def deposit(self):
        self.deposits[self.msg.sender] += self.msg.value

    @external
    def withdraw(self, amount):
        require(self.deposits[self.msg.sender] >= amount, "insufficient")
        self.deposits[self.msg.sender] -= amount
        self.transfer(self.msg.sender, amount)

    @view
    def deposited(self, who):
        return self.deposits[who]


@register_contract
class Factory(Contract):
    created = Slot(int)

    @external
    def make_counter(self, salt):
        child = self.create(Counter, 0, salt=salt)
        self.created += 1
        return child

    @external
    def bump_remote(self, target):
        return self.call(target, "bump")


@pytest.fixture
def world():
    state = WorldState(chain_id=1, tree_factory=IAVLTree)
    runtime = Runtime(state, ETHEREUM_SCHEDULE)
    return state, runtime


def make_ctx(runtime, sender=ALICE, meter=None):
    return runtime.make_context(sender, ENV, meter)


def test_deploy_and_call(world):
    state, runtime = world
    ctx = make_ctx(runtime)
    addr = runtime.deploy(ctx, Counter, (5,), sender=ALICE)
    assert state.contract(addr) is not None
    assert runtime.call(ctx, addr, "bump", sender=ALICE) == 6
    assert runtime.view(addr, "peek") == 6


def test_constructor_sees_msg_sender(world):
    _, runtime = world
    ctx = make_ctx(runtime)
    addr = runtime.deploy(ctx, Counter, (), sender=ALICE)
    assert runtime.view(addr, "peek") == 0
    # owner set to ALICE: only ALICE may reset
    runtime.call(ctx, addr, "owner_only_reset", sender=ALICE)
    with pytest.raises(Revert, match="not owner"):
        runtime.call(ctx, addr, "owner_only_reset", sender=BOB)


def test_slots_persist_across_calls(world):
    _, runtime = world
    ctx = make_ctx(runtime)
    addr = runtime.deploy(ctx, Counter, (), sender=ALICE)
    for expected in (1, 2, 3):
        assert runtime.call(ctx, addr, "bump", sender=ALICE) == expected


def test_map_slot_and_payable(world):
    state, runtime = world
    state.add_balance(ALICE, 100)
    ctx = make_ctx(runtime)
    addr = runtime.deploy(ctx, Wallet, (), sender=ALICE)
    runtime.call(ctx, addr, "deposit", sender=ALICE, value=40)
    assert state.balance_of(addr) == 40
    assert runtime.view(addr, "deposited", (ALICE,)) == 40
    runtime.call(ctx, addr, "withdraw", (15,), sender=ALICE)
    assert state.balance_of(ALICE) == 75
    assert runtime.view(addr, "deposited", (ALICE,)) == 25


def test_value_to_non_payable_rejected(world):
    state, runtime = world
    state.add_balance(ALICE, 10)
    ctx = make_ctx(runtime)
    addr = runtime.deploy(ctx, Counter, (), sender=ALICE)
    with pytest.raises(Revert, match="not payable"):
        runtime.call(ctx, addr, "bump", sender=ALICE, value=5)


def test_insufficient_value_rejected(world):
    _, runtime = world
    ctx = make_ctx(runtime)
    addr = runtime.deploy(ctx, Wallet, (), sender=ALICE)
    with pytest.raises(Revert, match="insufficient balance"):
        runtime.call(ctx, addr, "deposit", sender=ALICE, value=5)


def test_non_external_method_not_callable(world):
    _, runtime = world
    ctx = make_ctx(runtime)
    addr = runtime.deploy(ctx, Counter, (), sender=ALICE)
    with pytest.raises(Revert, match="no external method"):
        runtime.call(ctx, addr, "init", sender=ALICE)
    with pytest.raises(Revert, match="no external method"):
        runtime.call(ctx, addr, "_storage_read", sender=ALICE)


def test_cross_contract_call(world):
    _, runtime = world
    ctx = make_ctx(runtime)
    factory = runtime.deploy(ctx, Factory, (), sender=ALICE)
    counter = runtime.call(ctx, factory, "make_counter", (1,), sender=ALICE)
    # Factory calls Counter.bump: msg.sender inside bump is the factory
    assert runtime.call(ctx, factory, "bump_remote", (counter,), sender=ALICE) == 1


def test_create2_address_is_predictable(world):
    _, runtime = world
    ctx = make_ctx(runtime)
    factory = runtime.deploy(ctx, Factory, (), sender=ALICE)
    child = runtime.call(ctx, factory, "make_counter", (42,), sender=ALICE)
    assert child == create2_address(1, factory, 42, Counter.CODE_HASH)


def test_locked_contract_rejects_mutation_allows_view(world):
    state, runtime = world
    ctx = make_ctx(runtime)
    addr = runtime.deploy(ctx, Counter, (7,), sender=ALICE)
    state.lock(addr, 2, 0)  # as if Move1 executed
    with pytest.raises(ContractLocked):
        runtime.call(ctx, addr, "bump", sender=ALICE)
    assert runtime.view(addr, "peek") == 7  # reads stay allowed


def test_gas_metering_charges_storage_costs(world):
    _, runtime = world
    meter = GasMeter(schedule=ETHEREUM_SCHEDULE)
    ctx = make_ctx(runtime, meter=meter)
    addr = runtime.deploy(ctx, Counter, (), sender=ALICE)
    assert meter.by_category.get("create", 0) >= ETHEREUM_SCHEDULE.create
    assert meter.by_category.get("code_deposit", 0) == ETHEREUM_SCHEDULE.code_deposit(
        len(Counter.CODE)
    )
    before = meter.used
    runtime.call(ctx, addr, "bump", sender=ALICE)
    # bump: CALL + SLOAD + SSTORE(update) at minimum
    assert meter.used - before >= (
        ETHEREUM_SCHEDULE.call + ETHEREUM_SCHEDULE.sload + ETHEREUM_SCHEDULE.sstore_update
    )


def test_out_of_gas_aborts(world):
    _, runtime = world
    meter = GasMeter(limit=10_000, schedule=ETHEREUM_SCHEDULE)
    ctx = make_ctx(runtime, meter=meter)
    with pytest.raises(OutOfGas):
        runtime.deploy(ctx, Counter, (), sender=ALICE)


def test_code_deposit_charged_on_every_ethereum_creation(world):
    # Section VIII: every (re)created contract pays the per-byte code
    # deposit on Ethereum, even when identical code is already on-chain.
    _, runtime = world
    meter = GasMeter(schedule=ETHEREUM_SCHEDULE)
    ctx = make_ctx(runtime, meter=meter)
    runtime.deploy(ctx, Counter, (), sender=ALICE)
    first_deposit = meter.by_category.get("code_deposit", 0)
    assert first_deposit == ETHEREUM_SCHEDULE.code_deposit(len(Counter.CODE))
    runtime.deploy(ctx, Counter, (), sender=ALICE)
    assert meter.by_category.get("code_deposit", 0) == 2 * first_deposit


def test_no_code_deposit_on_burrow_flavour(world):
    from repro.vm.gas import BURROW_SCHEDULE

    state, _ = world
    from repro.runtime.runtime import Runtime

    runtime = Runtime(state, BURROW_SCHEDULE)
    meter = GasMeter(schedule=BURROW_SCHEDULE)
    ctx = make_ctx(runtime, meter=meter)
    runtime.deploy(ctx, Counter, (), sender=ALICE)
    assert meter.by_category.get("code_deposit", 0) == 0


def test_default_move_to_refuses(world):
    _, runtime = world
    ctx = make_ctx(runtime)
    addr = runtime.deploy(ctx, Wallet, (), sender=ALICE)
    instance = runtime.bind(ctx, addr)
    ctx.push_msg(Msg(ALICE, 0))
    try:
        with pytest.raises(Revert, match="does not implement moveTo"):
            instance.move_to(2)
    finally:
        ctx.pop_msg()


def test_events_recorded(world):
    @register_contract
    class Emitter(Contract):
        @external
        def ping(self):
            self.emit("Ping", who=str(self.msg.sender))

    _, runtime = world
    ctx = make_ctx(runtime)
    addr = runtime.deploy(ctx, Emitter, (), sender=ALICE)
    runtime.call(ctx, addr, "ping", sender=ALICE)
    assert ctx.events and ctx.events[0][0] == "Ping"


# ----------------------------------------------------------------------
# Registration-time specialization (dispatch table, MapSlot key memo)
# ----------------------------------------------------------------------


class TestSpecialization:
    def test_dispatch_table_built_at_registration(self):
        from repro.apps.scoin import SAccount, SCoin

        for cls in (SAccount, SCoin):
            table = cls.__dict__["_RT_DISPATCH"]
            for name, (fn, is_view, is_payable) in table.items():
                assert getattr(fn, "_is_external", False)
                assert is_view == getattr(fn, "_is_view", False)
                assert is_payable == getattr(fn, "_is_payable", False)
        assert "transfer_tokens" in SAccount.__dict__["_RT_DISPATCH"]
        assert "init" not in SAccount.__dict__["_RT_DISPATCH"]

    def test_reregistration_rebuilds_the_table(self):
        from repro.runtime.contract import Contract, external
        from repro.runtime.registry import register_contract

        @register_contract
        class Widget(Contract):
            @external
            def ping(self) -> int:
                return 1

        first = Widget.__dict__["_RT_DISPATCH"]
        assert set(first) == {"ping"}

        # Redeploy scenario: the class is redefined (new methods) and
        # re-registered — the table must reflect the new shape, not the
        # stale one.
        @register_contract
        class Widget(Contract):  # noqa: F811
            @external
            def ping(self) -> int:
                return 2

            @external
            def pong(self) -> int:
                return 3

        assert set(Widget.__dict__["_RT_DISPATCH"]) == {"ping", "pong"}

    def test_mapslot_derived_key_matches_direct_derivation(self):
        slot = MapSlot(int, int)
        slot.__set_name__(None, "allowances")
        from repro.runtime.contract import encode_key

        key = ALICE
        assert slot.derived_key(key) == keccak(slot.base, encode_key(key))
        # memoized path returns the same bytes
        assert slot.derived_key(key) == slot.derived_key(key)

    def test_mapslot_cache_keeps_bool_and_int_apart(self):
        slot = MapSlot(bool, int)
        slot.__set_name__(None, "flags")
        assert slot.derived_key(True) != slot.derived_key(1)
        assert slot.derived_key(False) != slot.derived_key(0)

    def test_mapslot_rename_invalidates_cache(self):
        slot = MapSlot(int, int)
        slot.__set_name__(None, "first")
        before = slot.derived_key(7)
        slot.__set_name__(None, "second")
        assert slot.derived_key(7) != before
