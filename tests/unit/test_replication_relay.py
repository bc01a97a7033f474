"""Units for the relay sync pump and the node-level manager.

The relay half runs over a real chain pair with manual block
production (so every sync step is explicit); the manager half runs
over a real :class:`~repro.node.Node` on the simulated clock (so read
routing and the read-rate signal see the same surfaces production
code does).
"""

import pytest

from repro.chain.block import BlockHeader
from repro.chain.chain import Chain
from repro.chain.params import burrow_params, ethereum_params
from repro.chain.tx import sign_transaction
from repro.core.registry import ChainRegistry
from repro.crypto.hashing import keccak
from repro.errors import ReplicaUnavailable, StateError
from repro.ibc.headers import connect_chains
from repro.node import Node
from repro.replicate.mirror import HALTED, LIVE, SYNCING, TOMBSTONED
from repro.replicate.relay import ReplicationRelay
from tests.helpers import (
    ALICE,
    CallPayload,
    DeployPayload,
    ManualClock,
    StoreContract,
    deploy_store,
    produce,
    run_tx,
)

# ----------------------------------------------------------------------
# Relay: one source→target sync pump over manual blocks
# ----------------------------------------------------------------------


def _relay_setup():
    """Burrow source (1), Ethereum-trie target (2), one replicated
    StoreContract.  The staleness bound is the source's p = 2 blocks,
    and every mirror update crosses flavours (IAVL to Patricia trie)."""
    registry = ChainRegistry()
    source = Chain(burrow_params(1), registry)
    target = Chain(ethereum_params(2), registry)
    connect_chains([source, target])
    clock = ManualClock()
    address = deploy_store(source, clock, ALICE)
    receipt = run_tx(source, clock, ALICE, CallPayload(address, "put", (1, 42)))
    assert receipt.success, receipt.error
    relay = ReplicationRelay(source, target)
    relay.start()
    mirror = relay.add_contract(address)
    return source, target, clock, address, relay, mirror


def test_mirror_syncs_to_live_and_serves_the_committed_value():
    source, target, clock, address, relay, mirror = _relay_setup()
    # Not enough confirmation headroom yet: unavailable, not wrong.
    assert mirror.status == SYNCING
    assert not mirror.available
    produce(source, clock, 3)  # headers flow instantly; relay syncs
    assert mirror.status == LIVE
    assert mirror.full_syncs == 1
    assert relay.updates >= 1
    assert target.state.is_mirror(address)
    assert target.view(address, "get_value", 1) == 42


def test_incremental_syncs_ship_deltas_not_full_images():
    source, target, clock, address, relay, mirror = _relay_setup()
    produce(source, clock, 3)
    applied_after_first = mirror.updates_applied
    receipt = run_tx(source, clock, ALICE, CallPayload(address, "put", (2, 7)))
    assert receipt.success
    produce(source, clock, 3)
    assert mirror.updates_applied > applied_after_first
    assert mirror.full_syncs == 1  # everything after bootstrap is a delta
    assert target.view(address, "get_value", 2) == 7


def test_staleness_stays_within_the_bound_once_live():
    source, target, clock, address, relay, mirror = _relay_setup()
    produce(source, clock, 3)
    bound = mirror.staleness_bound
    assert bound == (
        source.params.confirmation_depth + source.params.state_root_lag
    )
    for round_no in range(5):
        run_tx(source, clock, ALICE, CallPayload(address, "put", (round_no, round_no)))
        assert mirror.status == LIVE
        assert mirror.staleness(source.height) <= bound


def test_remove_contract_wipes_the_replica():
    source, target, clock, address, relay, mirror = _relay_setup()
    produce(source, clock, 3)
    assert target.state.is_mirror(address)
    relay.remove_contract(address)
    assert mirror.status == TOMBSTONED
    assert mirror.reason == "dropped"
    assert target.state.contract(address).storage == {}
    assert not target.state.is_mirror(address)
    assert address not in relay.mirrors
    relay.remove_contract(address)  # idempotent


def _forged_header(parent: BlockHeader, tag: str) -> BlockHeader:
    return BlockHeader(
        chain_id=parent.chain_id,
        height=parent.height + 1,
        parent_hash=parent.hash(),
        state_root=keccak(f"forged-{tag}".encode()),
        txs_root=keccak(b"txs"),
        timestamp=float(parent.height + 1),
        proposer="forger",
    )


def test_reorg_halts_the_mirror_and_a_canonical_branch_revives_it():
    source, target, clock, address, relay, mirror = _relay_setup()
    produce(source, clock, 3)
    assert mirror.status == LIVE
    store = target.light_client.store_for(source.chain_id)
    applied = mirror.applied_header

    # Forge a longer competing branch that orphans the applied header.
    parent = store.header_at(applied.height - 1)
    for offset in range(store.head_height - applied.height + 3):
        forged = _forged_header(parent, str(offset))
        store.add_header(forged)
        parent = forged
    relay.sync_all()

    # Halted, and the orphaned storage is gone from the target state:
    # a reader gets a typed error, never data from the losing branch.
    assert mirror.status == HALTED
    assert relay.halts == 1
    assert target.state.contract(address).storage == {}
    assert mirror.synced_height == -1
    assert not target.state.is_mirror(address)

    # The honest chain keeps producing; once its branch outgrows the
    # forged one, canonical flips back and the relay full-resyncs.
    produce(source, clock, 8)
    assert mirror.status == LIVE
    assert mirror.full_syncs == 2  # recovery is a fresh bootstrap
    assert target.view(address, "get_value", 1) == 42


def test_source_move1_tombstones_the_mirror_immediately():
    source, target, clock, address, relay, mirror = _relay_setup()
    produce(source, clock, 3)
    assert mirror.status == LIVE
    from repro.chain.tx import Move1Payload

    receipt = run_tx(
        source, clock, ALICE, Move1Payload(contract=address, target_chain=2)
    )
    assert receipt.success, receipt.error
    assert mirror.status == TOMBSTONED
    assert "moved" in mirror.reason
    assert mirror.moved_to == 2
    assert relay.tombstones == 1
    assert not target.state.is_mirror(address)


# ----------------------------------------------------------------------
# Manager: placement, routing and the read-rate signal on a Node
# ----------------------------------------------------------------------


def _node_setup():
    node = Node(
        [burrow_params(1), burrow_params(2), burrow_params(3)], seed=7
    )
    manager = node.attach_replication()
    node.start()
    address = _run_tx_on(node, 1, DeployPayload(code_hash=StoreContract.CODE_HASH))
    _run_tx_on(node, 1, CallPayload(address, "put", (1, 42)))
    return node, manager, address


def _run_tx_on(node, chain_id, payload):
    tx = sign_transaction(ALICE, payload)
    assert node.submit(chain_id, tx)
    ok = node.run_until(
        lambda: node.receipt(chain_id, tx.tx_id) is not None,
        max_time=node.now + 120.0,
    )
    assert ok, "transaction never committed"
    receipt = node.receipt(chain_id, tx.tx_id)
    assert receipt.success, receipt.error
    return receipt.return_value


def test_manager_routes_primary_replica_and_fallback_reads():
    node, manager, address = _node_setup()
    manager.replicate(address, 1, [2])
    ok = node.run_until(
        lambda: manager.mirror(address, 2) is not None
        and manager.mirror(address, 2).available,
        max_time=node.now + 120.0,
    )
    assert ok, manager.status(address)

    # Active copy on the preferred chain.
    assert manager.read(address, "get_value", 1, prefer_chain=1) == 42
    # LIVE replica on the preferred chain.
    assert manager.read(address, "get_value", 1, prefer_chain=2) == 42
    # No replica on chain 3: fallback reaches the active copy...
    assert manager.read(address, "get_value", 1, prefer_chain=3) == 42
    # ...and without fallback the miss is a typed error.
    with pytest.raises(ReplicaUnavailable, match="no replica"):
        manager.read(address, "get_value", 1, prefer_chain=3, fallback=False)
    assert manager.status(address) == {2: LIVE}
    assert manager.source_of(address) == 1


def test_manager_rejects_bad_placements():
    node, manager, address = _node_setup()
    with pytest.raises(StateError, match="own chain"):
        manager.replicate(address, 1, [1])
    with pytest.raises(StateError, match="no contract"):
        manager.replicate(b"\x00" * 20, 2, [3])


def test_manager_drop_retires_every_mirror():
    node, manager, address = _node_setup()
    manager.replicate(address, 1, [2, 3])
    node.run_until(
        lambda: all(m.available for m in manager.mirrors(address).values()),
        max_time=node.now + 120.0,
    )
    assert set(manager.status(address)) == {2, 3}
    manager.drop(address)
    assert manager.mirrors(address) == {}
    assert manager.source_of(address) is None
    assert not node.chain(2).state.is_mirror(address)
    assert not node.chain(3).state.is_mirror(address)


def test_read_rate_signal_windows_and_decays():
    node, manager, address = _node_setup()
    manager.replicate(address, 1, [2])
    node.run_until(
        lambda: manager.mirror(address, 2) is not None
        and manager.mirror(address, 2).available,
        max_time=node.now + 120.0,
    )
    for _ in range(20):
        manager.read(address, "get_value", 1, prefer_chain=2)
    assert manager.read_rate(address) == pytest.approx(2.0)  # 20 / 10 s window
    assert manager.read_rates()[address] == pytest.approx(2.0)
    assert manager.reads_by_contract[address] == 20
    # The window slides: with no further reads the signal decays to 0.
    node.run_for(30.0)
    assert manager.read_rate(address) == 0.0
