"""Unit tests for the contract locator and the chain registry."""

import pytest

from repro.chain.params import burrow_params
from repro.core.locator import ContractLocator
from repro.core.registry import ChainRegistry
from repro.crypto.keys import Address
from repro.errors import StateError
from tests.helpers import ALICE, ManualClock, deploy_store, full_move, make_chain_pair

ADDR = Address(b"\x07" * 20)


def locator_over(table):
    """table: {chain_id: location or None}"""
    return ContractLocator(lambda chain, _addr: table.get(chain))


def test_locate_contract_at_home():
    loc = locator_over({1: 1})
    assert loc.locate(ADDR, start_chain=1) == 1


def test_locate_follows_one_hop():
    loc = locator_over({1: 2, 2: 2})
    assert loc.locate(ADDR, start_chain=1) == 2


def test_locate_follows_long_trail():
    loc = locator_over({1: 2, 2: 3, 3: 4, 4: 4})
    assert loc.locate(ADDR, start_chain=1) == 4


def test_locate_unknown_contract():
    loc = locator_over({})
    with pytest.raises(StateError, match="no record"):
        loc.locate(ADDR, start_chain=1)


def test_locate_dangling_move_detected():
    # Move1 executed (1 says "at 2") but Move2 never ran and chain 2
    # has no record: the trail dead-ends with a clear error.
    loc = locator_over({1: 2})
    with pytest.raises(StateError, match="no record"):
        loc.locate(ADDR, start_chain=1)


def test_locate_cycle_detected():
    # Stale records pointing at each other (no active copy).
    loc = locator_over({1: 2, 2: 1})
    with pytest.raises(StateError):
        loc.locate(ADDR, start_chain=1)


def test_registry_register_and_lookup():
    registry = ChainRegistry()
    params = burrow_params(5)
    registry.register(params)
    assert registry.params_for(5) is params
    assert 5 in registry
    assert len(registry) == 1


def test_registry_rejects_conflicting_ids():
    registry = ChainRegistry()
    registry.register(burrow_params(5))
    with pytest.raises(StateError):
        registry.register(burrow_params(5, name="other"))


def test_registry_same_instance_is_idempotent():
    registry = ChainRegistry()
    params = burrow_params(5)
    registry.register(params)
    registry.register(params)  # no raise
    assert len(registry) == 1


def test_registry_unknown_chain():
    with pytest.raises(StateError):
        ChainRegistry().params_for(42)


def test_locator_over_live_chains():
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    addr = deploy_store(burrow, clock, ALICE)
    locator = ContractLocator.over_chains([burrow, ethereum])
    assert locator.locate(addr, start_chain=burrow.chain_id) == burrow.chain_id
    assert full_move(burrow, ethereum, clock, ALICE, addr).success
    # The trail: chain 1 says "moved to 2", chain 2 has the active copy.
    assert locator.locate(addr, start_chain=burrow.chain_id) == ethereum.chain_id
    assert locator.locate(addr, start_chain=ethereum.chain_id) == ethereum.chain_id
