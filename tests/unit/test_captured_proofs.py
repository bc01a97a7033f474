"""Historical proofs are captured at commit; no old tree is kept.

A block proves, against its own root, the contract leaves it wrote while
locked and every replicated contract; the head is served from the live
committed tree.  These tests pin the three readers' edge cases and the
memory rule that follows: a chain with no locks keeps no path copies.
"""

import gc

import pytest

import repro.merkle.iavl as iavl
from repro.chain.chain import Chain, ChainRegistry
from repro.chain.params import burrow_params
from repro.chain.tx import CallPayload, DeployPayload, TransferPayload, sign_transaction
from repro.core.swap import SwapFactory
from repro.crypto.keys import KeyPair
from repro.errors import ProofError
from tests.helpers import (
    ALICE,
    BOB,
    ManualClock,
    deploy_store,
    make_chain_pair,
    produce,
    run_tx,
)


def test_escrow_created_locked_is_provable_at_its_creation_height():
    # SwapFactory.open creates the escrow already pointing at the peer:
    # there is no Move1, only a locked leaf written at creation.
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    burrow.fund({ALICE.address: 1_000})
    factory = run_tx(
        burrow, clock, ALICE, DeployPayload(code_hash=SwapFactory.CODE_HASH)
    ).return_value
    receipt = run_tx(
        burrow, clock, ALICE,
        CallPayload(factory, "open", (ethereum.chain_id, BOB.address, 800, 10_000), value=500),
    )
    escrow, created = receipt.return_value, receipt.block_height
    assert burrow.state.is_locked(escrow)
    assert list(burrow._proofs[created]) == [escrow]
    while burrow.height < burrow.proof_ready_height(created):
        produce(burrow, clock)
    bundle = burrow.prove_contract_at(escrow, created)
    leaf, _tree = bundle.verify_against_root(ethereum.light_client, burrow.params.tree_factory)
    assert leaf.location == ethereum.chain_id


def test_replica_update_is_served_at_the_enable_replication_height():
    # A relay's first update may ask for the height replication started
    # at, which was the head between two blocks when it was enabled.
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    store = deploy_store(burrow, clock, ALICE)
    run_tx(burrow, clock, ALICE, CallPayload(store, "put", (1, 42)))
    enabled, storage = burrow.height, dict(burrow.state.contract(store).storage)
    burrow.enable_replication(store)
    run_tx(burrow, clock, ALICE, CallPayload(store, "put", (1, 43)))
    produce(burrow, clock, burrow.params.confirmation_depth + burrow.params.state_root_lag)
    update = burrow.build_replica_update(store, upto=enabled)
    _leaf, tree = update.verify(ethereum.light_client, burrow.params.tree_factory)
    image = dict(tree.items())
    assert update.state_height == enabled and image == storage
    assert image != burrow.state.contract(store).storage  # the later put moved on


def test_a_height_nobody_captured_raises_proof_error_naming_it():
    burrow, _ethereum = make_chain_pair()
    clock = ManualClock()
    store = deploy_store(burrow, clock, ALICE)
    factory = run_tx(
        burrow, clock, ALICE, DeployPayload(code_hash=SwapFactory.CODE_HASH)
    ).return_value
    past = burrow.height
    produce(burrow, clock, 3)
    # Unchanged since ``past`` and unlocked: nothing was proven there.
    assert past not in burrow._proofs
    with pytest.raises(ProofError, match=f"no state snapshot at height {past}"):
        burrow.prove_contract_at(store, past)
    with pytest.raises(ProofError, match=f"no state snapshot at height {past}"):
        burrow.prove_storage_entry(factory, b"\x00" * 32, past)
    burrow.enable_replication(store)
    with pytest.raises(ProofError, match=f"no state snapshot at height {past}"):
        burrow.build_replica_update(store, upto=past)


def live_nodes() -> int:
    gc.collect()
    return sum(1 for obj in gc.get_objects() if type(obj) is iavl._Node)


def test_transfers_to_existing_accounts_leave_the_live_node_count_flat():
    # With no snapshot anywhere, a block of overwrites rewrites its paths
    # in place: a hundred blocks allocate no tree node that outlives them.
    users = [KeyPair.from_name(f"flat-{i}") for i in range(8)]
    chain = Chain(burrow_params(1), ChainRegistry(), verify_signatures=False)
    chain.fund({kp.address: 10**9 for kp in users})
    clock = ManualClock()

    def block(n):
        for i, kp in enumerate(users):
            payee = users[(i + 1 + n) % len(users)].address
            assert chain.submit(sign_transaction(kp, TransferPayload(payee, 1)))
        chain.produce_block(clock.tick())

    block(0)
    before = live_nodes()
    for n in range(1, 101):
        block(n)
    assert live_nodes() == before
    assert chain._proofs == {}  # no lock, no replication: nothing captured
