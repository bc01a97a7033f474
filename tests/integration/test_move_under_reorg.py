"""Move protocol vs. PoW reorgs (the paper's p-confirmation argument).

The source chain is Ethereum-flavoured (p = 6); the target observes it
through its light client.  ``FaultInjector.reorg(chain, d)``
shows the target a competing branch whose deepest orphaned block had
``d`` confirmations:

* a Move1 still below ``p`` confirmations can be reorged out — the
  Move2 carrying its (now stale) proof must abort, and only a proof
  against the branch that finally sticks goes through;
* a Move1 buried ``p`` deep survives every absorbable reorg
  (``d <= p-1``) and its Move2 succeeds;
* a reorg at ``d >= p`` replaces a header peers were entitled to trust
  — the store must *detect* it (``deep_reorgs``), never absorb it.
"""

import pytest

from tests.helpers import ALICE, ManualClock, StoreContract, produce, run_tx
from repro.chain.chain import Chain
from repro.chain.params import burrow_params, ethereum_params
from repro.chain.tx import DeployPayload, Move1Payload, Move2Payload
from repro.core.registry import ChainRegistry
from repro.errors import FaultPlanError
from repro.faults import FaultInjector
from repro.ibc.headers import HeaderRelay
from repro.net.sim import Simulator

P = 6  # ethereum_params confirmation depth


def make_world():
    """PoW source (chain 1) + BFT target (chain 2) observing it, with
    an injector aimed at the pair."""
    registry = ChainRegistry()
    source = Chain(ethereum_params(1), registry, verify_signatures=False)
    target = Chain(burrow_params(2), registry, verify_signatures=False)
    HeaderRelay(source, [target])
    injector = FaultInjector(
        Simulator(seed=77), chains={1: source, 2: target}, seed=77
    )
    clock = ManualClock()
    receipt = run_tx(
        source, clock, ALICE, DeployPayload(code_hash=StoreContract.CODE_HASH)
    )
    assert receipt.success, receipt.error
    return source, target, injector, clock, receipt.return_value


def store_of(target: Chain):
    return target.light_client.store_for(1)


def submit_move1(source, clock, contract):
    receipt = run_tx(
        source, clock, ALICE, Move1Payload(contract=contract, target_chain=2)
    )
    assert receipt.success, receipt.error
    return receipt.block_height


def test_unconfirmed_move1_reorged_out_aborts_move2():
    source, target, injector, clock, contract = make_world()
    inclusion = submit_move1(source, clock, contract)
    produce(source, clock, count=3)  # 3 confirmations: below p
    bundle = source.prove_contract_at(contract, inclusion)

    # The branch orphans everything up to depth 4 — Move1 included.
    injector.reorg(1, depth=4)
    store = store_of(target)
    assert store.reorgs == 1
    assert store.deep_reorgs == 0
    assert not store.is_canonical(source.blocks[inclusion].header)

    receipt = run_tx(target, clock, ALICE, Move2Payload(bundle=bundle))
    assert not receipt.success
    assert "root" in receipt.error.lower()  # VS rejected the stale proof
    assert target.state.contract(contract) is None  # nothing recreated

    # The honest chain outgrows the attacker branch; once the Move1
    # block is canonical again and p-deep, the same proof validates.
    while not store.is_canonical(source.blocks[inclusion].header) or not (
        store.is_confirmed(inclusion)
    ):
        produce(source, clock)
    receipt = run_tx(target, clock, ALICE, Move2Payload(bundle=bundle))
    assert receipt.success, receipt.error
    assert target.state.contract(contract).location == target.chain_id


def test_confirmed_move1_survives_absorbable_reorg():
    source, target, injector, clock, contract = make_world()
    inclusion = submit_move1(source, clock, contract)
    produce(source, clock, count=P)  # buried p deep: confirmed
    bundle = source.prove_contract_at(contract, inclusion)

    # The deepest absorbable reorg (d = p-1) forks exactly at the Move1
    # block; the block itself stays canonical.
    injector.reorg(1, depth=P - 1)
    store = store_of(target)
    assert store.reorgs == 1
    assert store.deep_reorgs == 0
    assert store.is_canonical(source.blocks[inclusion].header)

    receipt = run_tx(target, clock, ALICE, Move2Payload(bundle=bundle))
    assert receipt.success, receipt.error
    assert target.state.contract(contract).location == target.chain_id


def test_p_deep_reorg_is_detected_not_absorbed():
    source, target, injector, clock, contract = make_world()
    produce(source, clock, count=P + 2)
    store = store_of(target)
    confirmed_height = store.head_height - P
    assert store.is_confirmed(confirmed_height)
    trusted_before = store.trusted_state_root(confirmed_height)
    assert trusted_before is not None

    injector.reorg(1, depth=P)
    assert store.reorgs == 1
    assert store.deep_reorgs == 1  # a trusted header was replaced
    # The once-trusted root no longer validates.
    assert store.trusted_state_root(confirmed_height) != trusted_before


def test_reorg_depth_validation():
    source, _target, injector, clock, _contract = make_world()
    with pytest.raises(FaultPlanError):
        injector.reorg(1, depth=source.height + 5)
    with pytest.raises(FaultPlanError):
        injector.reorg(1, depth=0)
