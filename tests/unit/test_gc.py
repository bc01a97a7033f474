"""Unit/integration tests for stale-state garbage collection (§III-G c).

The safety property under test: collection must never re-enable the
Fig. 2 replay attack — tombstones keep the move nonce — and must never
break an active contract.
"""

import pytest

from repro.chain.chain import Chain, ChainRegistry
from repro.chain.params import burrow_params
from repro.chain.tx import CallPayload, Move1Payload, Move2Payload
from repro.errors import ProofError
from tests.helpers import (
    ALICE,
    BOB,
    ManualClock,
    StoreContract,
    deploy_store,
    full_move,
    make_chain_pair,
    produce,
    run_tx,
)


@pytest.fixture
def moved_world():
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    addr = deploy_store(burrow, clock, ALICE)
    run_tx(burrow, clock, ALICE, CallPayload(addr, "put", (1, 100)))
    receipt = full_move(burrow, ethereum, clock, ALICE, addr)
    assert receipt.success
    return burrow, ethereum, clock, addr


def test_gc_reclaims_stale_storage(moved_world):
    burrow, _ethereum, clock, addr = moved_world
    record = burrow.state.contract(addr)
    assert record.storage  # stale copy still holds state
    report = burrow.gc_stale()
    assert addr in report.collected
    assert report.slots_freed >= 1
    assert report.bytes_freed > 0
    assert not record.storage
    # Tombstone: location and nonce survive.
    assert record.location == 2
    assert record.move_nonce == 1


def test_gc_never_touches_active_contracts():
    burrow, _ethereum = make_chain_pair()
    clock = ManualClock()
    addr = deploy_store(burrow, clock, ALICE)
    run_tx(burrow, clock, ALICE, CallPayload(addr, "put", (1, 1)))
    report = burrow.gc_stale()
    assert report.contracts_collected == 0
    assert burrow.state.contract(addr).storage


def test_gc_is_idempotent(moved_world):
    burrow, _ethereum, _clock, addr = moved_world
    assert burrow.gc_stale().contracts_collected == 1
    assert burrow.gc_stale().contracts_collected == 0


def test_gc_age_gate(moved_world):
    burrow, _ethereum, clock, addr = moved_world
    # Move happened a couple of blocks ago; a large age gate defers GC.
    report = burrow.gc_stale(min_age_blocks=100)
    assert report.contracts_collected == 0
    produce(burrow, clock, 5)
    report = burrow.gc_stale(min_age_blocks=3)
    assert report.contracts_collected == 1


def test_replay_rejected_after_gc(moved_world):
    # Fig. 2 attack against a *collected* source: contract goes
    # B1 -> B2, B1 collects, contract returns B2 -> B1, attacker
    # replays the original (pre-GC) Move2 on B2.
    burrow, ethereum, clock, addr = moved_world
    receipt1 = run_tx(
        ethereum, clock, ALICE, Move1Payload(contract=addr, target_chain=burrow.chain_id)
    )
    inclusion = receipt1.block_height
    while ethereum.height < ethereum.proof_ready_height(inclusion):
        produce(ethereum, clock)
    bundle_back = ethereum.prove_contract_at(addr, inclusion)

    burrow.gc_stale()  # collect the stale copy before the return lands
    back = run_tx(burrow, clock, BOB, Move2Payload(bundle=bundle_back))
    assert back.success, back.error
    assert burrow.view(addr, "get_value", 1) == 100

    # Now Ethereum holds a stale tombstone; collect it too and replay
    # the contract's *first* outbound bundle there: must still abort.
    ethereum.gc_stale()
    # Rebuild the original first-move bundle path: we saved none, so
    # derive a stale bundle by reusing the back-move proof on the wrong
    # chain — location check fires first; the nonce path is covered by
    # test below.
    replay = run_tx(ethereum, clock, BOB, Move2Payload(bundle=bundle_back))
    assert not replay.success


def test_stale_move2_nonce_rejected_after_gc():
    # Full nonce-path check: keep the first bundle, GC everywhere,
    # replay it at its original (correct-location) target.
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    addr = deploy_store(burrow, clock, ALICE)
    run_tx(burrow, clock, ALICE, CallPayload(addr, "put", (1, 7)))

    receipt1 = run_tx(
        burrow, clock, ALICE, Move1Payload(contract=addr, target_chain=ethereum.chain_id)
    )
    inclusion = receipt1.block_height
    while burrow.height < burrow.proof_ready_height(inclusion):
        produce(burrow, clock)
    first_bundle = burrow.prove_contract_at(addr, inclusion)
    assert run_tx(ethereum, clock, ALICE, Move2Payload(bundle=first_bundle)).success

    # Round trip back to burrow, then GC ethereum's stale copy.
    assert full_move(ethereum, burrow, clock, ALICE, addr).success
    report = ethereum.gc_stale()
    assert report.contracts_collected == 1

    # Replay of the first bundle on ethereum: tombstone nonce wins.
    replay = run_tx(ethereum, clock, BOB, Move2Payload(bundle=first_bundle))
    assert not replay.success
    assert "ReplayError" in replay.error


def test_gc_blocks_pending_proof_construction(moved_world):
    # Collecting too early makes a dangling move unprovable from this
    # chain — the age gate exists exactly for this; verify the failure
    # is explicit, not silent corruption.
    burrow, ethereum, clock, addr = moved_world
    receipt = run_tx(
        ethereum, clock, ALICE, Move1Payload(contract=addr, target_chain=burrow.chain_id)
    )
    inclusion = receipt.block_height
    ethereum.gc_stale()  # reckless: collects while the move dangles
    while ethereum.height < ethereum.proof_ready_height(inclusion):
        produce(ethereum, clock)
    with pytest.raises(ProofError):
        ethereum.prove_contract_at(addr, inclusion)


def test_snapshot_retention_bounds_growth_automatically():
    # With a small retention horizon, the post-state roots and the
    # proofs captured at commit stay bounded as blocks flow.
    registry = ChainRegistry()
    burrow = Chain(burrow_params(1, snapshot_retention=5), registry)
    clock = ManualClock()
    store = deploy_store(burrow, clock, ALICE)
    burrow.enable_replication(store)  # proven at every block from here on
    produce(burrow, clock, 20)
    window = list(range(burrow.height - 5, burrow.height + 1))
    # genesis fallback plus the inclusive retention window survive
    assert sorted(burrow._post_roots) == [0, *window]
    assert sorted(burrow._proofs) == window
    # heights inside the horizon still serve proofs, older ones do not
    burrow.build_replica_update(store, upto=burrow.height - 5)
    with pytest.raises(ProofError, match=f"height {burrow.height - 6}"):
        burrow.build_replica_update(store, upto=burrow.height - 6)


def test_zero_retention_disables_auto_pruning():
    registry = ChainRegistry()
    burrow = Chain(burrow_params(1, snapshot_retention=0), registry)
    clock = ManualClock()
    produce(burrow, clock, 10)
    assert len(burrow._post_roots) == burrow.height + 1  # every block kept
