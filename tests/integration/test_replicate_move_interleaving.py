"""Replication interleaved with the Move protocol, end to end.

The dangerous window is a move *in flight*: between Move1 (the source
locks and publishes) and Move2 (the target unlocks), the contract has
no active copy anywhere — and its mirrors are replaying state that is
about to be superseded on another chain.  The protocol's answer is
availability, not staleness: mirrors tombstone the moment Move1
commits, readers get the typed :class:`ReplicaUnavailable`, and once
Move2 lands the manager re-homes every mirror under the new source
chain and full-resyncs them from verified proofs.

The last section drives the rebalancer's replicate-vs-move arm through
the same machinery: a read-dominated hot contract draws a
``"replicate"`` decision, and :func:`replication_actuator` turns it
into a LIVE mirror without moving the active copy.
"""

import pytest

from repro.chain.chain import Chain
from repro.chain.params import burrow_params
from repro.chain.tx import Move1Payload
from repro.core.registry import ChainRegistry
from repro.errors import ReplicaUnavailable, UnknownChainError
from repro.ibc.headers import connect_chains
from repro.rebalance import RebalancePolicy, replication_actuator
from repro.rebalance.signals import ShardLoad, ShardLoadView
from repro.replicate.manager import ReplicationManager
from repro.replicate.mirror import LIVE, SYNCING, TOMBSTONED
from repro.telemetry import Telemetry
from tests.helpers import (
    ALICE,
    CallPayload,
    ManualClock,
    deploy_store,
    full_move,
    produce,
    run_tx,
)


class _Host:
    """The slice of a Node a ReplicationManager needs, over manually
    driven chains (same shim idea the chaos harness uses)."""

    def __init__(self, chains, clock):
        self.chains = {chain.chain_id: chain for chain in chains}
        self.sim = clock  # .now is all the manager reads
        self.telemetry = Telemetry.disabled()

    def chain(self, chain_id):
        try:
            return self.chains[chain_id]
        except KeyError:
            raise UnknownChainError(f"unserved chain {chain_id}") from None


def _world():
    """Three meshed burrow chains, a store on 1, a manager over all."""
    registry = ChainRegistry()
    chains = [Chain(burrow_params(i), registry) for i in (1, 2, 3)]
    connect_chains(chains)
    clock = ManualClock()
    one, two, three = chains
    address = deploy_store(one, clock, ALICE)
    run_tx(one, clock, ALICE, CallPayload(address, "put", (1, 42)))
    manager = ReplicationManager(_Host(chains, clock))
    manager.start()
    return one, two, three, clock, address, manager


def _go_live(manager, address, chain_id, source, clock):
    produce(source, clock, 3)
    mirror = manager.mirror(address, chain_id)
    assert mirror is not None and mirror.available, manager.status(address)
    return mirror


def test_move1_makes_the_mirror_unavailable_not_stale():
    one, two, three, clock, address, manager = _world()
    manager.replicate(address, 1, [2])
    mirror = _go_live(manager, address, 2, one, clock)
    assert manager.read(address, "get_value", 1, prefer_chain=2) == 42

    receipt = run_tx(
        one, clock, ALICE, Move1Payload(contract=address, target_chain=3)
    )
    assert receipt.success, receipt.error

    # The Move1 header reached the target; the relay tombstoned the
    # mirror in the same breath — before any client could read state
    # that is about to be superseded on chain 3.
    assert mirror.status == TOMBSTONED
    assert mirror.moved_to == 3
    assert not two.state.is_mirror(address)
    with pytest.raises(ReplicaUnavailable, match="tombstoned"):
        manager.read(address, "get_value", 1, prefer_chain=2, fallback=False)
    # Mid-move there is no active copy *anywhere*: even with fallback
    # the reader gets the typed error, never the locked source state.
    with pytest.raises(ReplicaUnavailable, match="no active copy"):
        manager.read(address, "get_value", 1, prefer_chain=2)


def test_move2_rehomes_mirrors_under_the_new_source():
    one, two, three, clock, address, manager = _world()
    manager.replicate(address, 1, [2])
    _go_live(manager, address, 2, one, clock)

    receipt = full_move(one, three, clock, ALICE, address)
    assert receipt.success, receipt.error

    # Move2 landed on chain 3: the manager re-homed the placement —
    # same targets, new source — and registered a fresh mirror.
    assert manager.rehomes == 1
    assert manager.source_of(address) == 3
    fresh = manager.mirror(address, 2)
    assert fresh is not None and fresh.status == SYNCING
    # Until it resyncs, reads fall back to the new active copy...
    assert manager.read(address, "get_value", 1, prefer_chain=2) == 42
    # ...and once chain 3 confirms, the mirror serves again, now fed
    # by the new source chain's proofs.
    _go_live(manager, address, 2, three, clock)
    run_tx(three, clock, ALICE, CallPayload(address, "put", (2, 7)))
    produce(three, clock, 3)
    assert fresh.status == LIVE
    assert two.view(address, "get_value", 2) == 7


def test_move2_onto_the_mirror_host_retires_the_mirror():
    one, two, three, clock, address, manager = _world()
    manager.replicate(address, 1, [2])
    _go_live(manager, address, 2, one, clock)

    receipt = full_move(one, two, clock, ALICE, address)
    assert receipt.success, receipt.error

    # The active copy now lives where the mirror did: the mirror
    # retires (re-homing skips the source chain itself) and reads on
    # chain 2 are primary reads.
    assert manager.source_of(address) == 2
    assert manager.mirrors(address) == {}
    assert not two.state.is_mirror(address)
    assert manager.read(address, "get_value", 1, prefer_chain=2) == 42
    # Writes work on chain 2 again — it is no longer read-only there.
    receipt = run_tx(two, clock, ALICE, CallPayload(address, "put", (3, 9)))
    assert receipt.success, receipt.error


# ----------------------------------------------------------------------
# The rebalancer's replicate-vs-move arm, actuated end to end
# ----------------------------------------------------------------------


def _skewed_view(address, read_rate):
    """Shard 0 hot with one hot contract; shard 1 cool and empty."""
    shards = {
        0: ShardLoad(0, 0.9),
        1: ShardLoad(1, 0.1),
    }
    return ShardLoadView(
        0.0,
        shards,
        {address: 1.0},
        {address: 0},
        contract_read_rate={address: read_rate},
    )


def test_read_dominated_contract_is_replicated_not_moved():
    one, two, three, clock, address, manager = _world()
    policy = RebalancePolicy(
        contract_cooldown=0.0, shard_cooldown=0.0, replicate_read_ratio=0.5
    )
    decisions = policy.decide(_skewed_view(address, read_rate=2.0), now=0.0)
    assert len(decisions) == 1
    decision = decisions[0]
    assert decision.action == "replicate"
    assert decision.source_shard == 0 and decision.target_shard == 1

    outcomes = []
    actuator = replication_actuator(manager)  # shard i -> chain i + 1
    actuator(decision, outcomes.append)
    assert outcomes == [True]

    # The decision became a real mirror: active copy stayed on chain 1,
    # reads fan out to chain 2 once the relay confirms.
    assert manager.source_of(address) == 1
    mirror = _go_live(manager, address, 2, one, clock)
    assert manager.read(address, "get_value", 1, prefer_chain=2) == 42
    assert one.location_of(address) == 1  # never moved


def test_write_dominated_contract_still_moves():
    _one, _two, _three, _clock, address, manager = _world()
    policy = RebalancePolicy(
        contract_cooldown=0.0, shard_cooldown=0.0, replicate_read_ratio=0.5
    )
    # Reads are negligible next to the hotness score: the classic arm.
    decisions = policy.decide(_skewed_view(address, read_rate=0.1), now=0.0)
    assert len(decisions) == 1
    assert decisions[0].action == "move"
    # The replication actuator settles a move as failed (and the
    # policy's cooldown throttles the retry) instead of replicating.
    outcomes = []
    replication_actuator(manager)(decisions[0], outcomes.append)
    assert outcomes == [False]
    assert manager.mirrors(address) == {}
