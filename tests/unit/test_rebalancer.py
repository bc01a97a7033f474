"""Actuation-layer tests: driver semantics, node hosting, determinism.

The determinism test is the load-bearing one: rebalancing decisions are
derived from the public block stream and the shared metrics registry,
so the decision log must replay exactly from its seed.
"""

import json

import pytest

from repro.chain.tx import CallPayload, DeployPayload, sign_transaction
from repro.crypto.keys import Address, KeyPair
from repro.errors import ConfigError, StateError, UnknownChainError
from repro.net.sim import Simulator
from repro.node import Node
from repro.chain.params import burrow_params
from repro.rebalance import (
    RebalancePolicy,
    Rebalancer,
    SignalPlane,
    replication_actuator,
)
from repro.sharding.cluster import ShardedCluster
from repro.telemetry import Telemetry
from tests.helpers import ALICE, ManualClock, StoreContract, deploy_store, full_move


def addr(n: int) -> Address:
    return Address(bytes([n]) * 20)


class _Stub:
    """A fixed load input: per-shard and per-contract values."""

    def __init__(self, shard_values=None, contract_values=None):
        self.shard = dict(shard_values or {})
        self.contract = dict(contract_values or {})

    def shard_values(self):
        return self.shard

    def contract_values(self):
        return self.contract


def skewed_plane(placement=None, read_rates=None):
    """Shard 0 saturated, shard 1 idle, one hot contract on 0."""
    placement = placement if placement is not None else {addr(1): 0}
    return SignalPlane(
        _Stub({0: 0.95, 1: 0.05}),
        _Stub(contract_values={addr(1): 2.0}),
        locate=placement.get,
        read_rates=read_rates,
    )


def quick_policy(**overrides):
    defaults = dict(
        hot_enter=0.8,
        hot_exit=0.5,
        min_gap=0.3,
        contract_cooldown=0.0,
        shard_cooldown=0.0,
    )
    defaults.update(overrides)
    return RebalancePolicy(**defaults)


# ----------------------------------------------------------------------
# Driver semantics
# ----------------------------------------------------------------------


def test_successful_move_settles_log_metrics_and_inflight():
    sim = Simulator(seed=1)
    calls = []

    def actuator(decision, done):
        calls.append(decision)
        sim.schedule(5.0, lambda: done(True))

    rb = Rebalancer(sim, skewed_plane(), quick_policy(), actuator, interval=10.0)
    rb.start()
    sim.run(until=12.0)
    assert len(calls) == 1
    assert rb.policy.inflight  # still moving at t=12
    sim.run(until=16.0)
    assert rb.policy.inflight == {}
    assert rb.moves("ok") and rb.moves("ok")[0]["contract"] == addr(1).hex
    metrics = rb.telemetry.metrics
    assert metrics.value("rebalance_moves_total", status="ok") == 1
    assert metrics.value("rebalance_decisions_total") == 1
    assert metrics.value("rebalance_ticks_total") >= 1
    assert metrics.value("rebalance_inflight") == 0


def test_move_timeout_reclaims_inflight_slot_and_ignores_late_done():
    sim = Simulator(seed=1)
    late = []

    def actuator(decision, done):
        late.append(done)  # never answers in time

    rb = Rebalancer(
        sim, skewed_plane(), quick_policy(contract_cooldown=100.0), actuator,
        interval=10.0, move_timeout=30.0,
    )
    rb.start()
    sim.run(until=45.0)
    assert rb.moves("timeout")
    assert rb.policy.inflight == {}
    assert rb.telemetry.metrics.value("rebalance_moves_total", status="timeout") >= 1
    before = rb.telemetry.metrics.value("rebalance_moves_total", status="ok")
    late[0](True)  # the move finally answers — after the write-off
    assert rb.telemetry.metrics.value("rebalance_moves_total", status="ok") == before


def test_raising_actuator_degrades_to_error_status():
    sim = Simulator(seed=1)

    def actuator(decision, done):
        raise RuntimeError("bridge on fire")

    rb = Rebalancer(sim, skewed_plane(), quick_policy(), actuator, interval=10.0)
    rb.start()
    sim.run(until=12.0)  # does not raise
    assert rb.moves("error")
    assert rb.policy.inflight == {}


class _RaisingManager:
    """A replication manager whose ``replicate`` always raises."""

    def __init__(self, exc):
        self.exc = exc

    def replicate(self, contract, source_chain, target_chains):
        raise self.exc


@pytest.mark.parametrize(
    "exc, status",
    [
        (StateError("no contract"), "failed"),
        (UnknownChainError("chain 9 is not served"), "failed"),
        (TypeError("replicate() got an unexpected argument"), "error"),
    ],
    ids=["state_error", "unknown_chain", "type_error"],
)
def test_replication_actuator_fails_refusals_and_surfaces_bugs(exc, status):
    # The manager's typed refusals settle as ``failed``; a programming
    # error reaches the driver's ``error`` path with an actuate_error event.
    sim = Simulator(seed=1)
    telemetry = Telemetry.enabled(clock=lambda: sim.now)
    plane = skewed_plane(read_rates=lambda: {addr(1): 10.0})
    rb = Rebalancer(
        sim,
        plane,
        quick_policy(replicate_read_ratio=0.5),
        replication_actuator(_RaisingManager(exc)),
        interval=10.0,
        telemetry=telemetry,
    )
    rb.start()
    sim.run(until=12.0)
    assert [e["action"] for e in rb.decision_log] == ["replicate"]
    assert [e["status"] for e in rb.moves()] == [status]
    (span,) = [s for s in telemetry.tracer.spans() if s.name == "rebalance.move"]
    events = [event.name for event in span.events]
    assert ("rebalance.actuate_error" in events) == (status == "error")


def test_dry_run_records_skipped_decisions():
    sim = Simulator(seed=1)
    rb = Rebalancer(sim, skewed_plane(), quick_policy(), actuator=None, interval=10.0)
    rb.start()
    sim.run(until=12.0)
    assert rb.moves("skipped")
    json.dumps(rb.decision_log)  # the replay artifact stays serializable


def test_stop_start_cannot_double_tick():
    sim = Simulator(seed=1)
    rb = Rebalancer(sim, skewed_plane(), quick_policy(), None, interval=10.0)
    rb.start()
    rb.stop()
    rb.start()  # the stale first timer must not produce a second chain
    sim.run(until=41.0)
    assert rb.ticks == 4


def test_config_validation():
    sim = Simulator(seed=1)
    with pytest.raises(ConfigError):
        Rebalancer(sim, skewed_plane(), interval=0.0)
    with pytest.raises(ConfigError):
        Rebalancer(sim, skewed_plane(), move_timeout=0.0)


# ----------------------------------------------------------------------
# Node hosting
# ----------------------------------------------------------------------


def test_node_hosts_rebalancer_lifecycle():
    node = Node(burrow_params(1), seed=3)
    rb = Rebalancer(node.sim, skewed_plane(), quick_policy(), None, interval=10.0)
    node.attach_rebalancer(rb)
    assert node.rebalancer is rb
    assert not rb.running
    node.start()
    assert rb.running
    node.run_for(25.0)
    assert rb.ticks == 2
    node.stop()
    assert not rb.running
    node.run_for(30.0)
    assert rb.ticks == 2  # no ticks while stopped
    node.start()
    node.run_for(25.0)
    assert rb.ticks == 4
    node.stop()
    node.attach_rebalancer(None)
    assert node.rebalancer is None


def test_attach_while_running_starts_immediately():
    node = Node(burrow_params(1), seed=3)
    node.start()
    rb = Rebalancer(node.sim, skewed_plane(), quick_policy(), None, interval=10.0)
    node.attach_rebalancer(rb)
    assert rb.running
    node.run_for(12.0)
    assert rb.ticks == 1
    node.stop()


# ----------------------------------------------------------------------
# Contract location: locate_contract reads each shard's L_c
# ----------------------------------------------------------------------


def test_locate_contract_tracks_deploys_and_moves():
    cluster = ShardedCluster(num_shards=2, seed=3)
    clock = ManualClock()
    store = deploy_store(cluster.shard(0), clock, ALICE)
    assert cluster.locate_contract(store) == 0
    receipt = full_move(cluster.shard(0), cluster.shard(1), clock, ALICE, store)
    assert receipt.success
    assert cluster.locate_contract(store) == 1
    assert cluster.locate_contract(addr(9)) is None


def test_locate_contract_returns_none_mid_move():
    from repro.chain.tx import Move1Payload
    from tests.helpers import run_tx

    cluster = ShardedCluster(num_shards=2, seed=3)
    clock = ManualClock()
    store = deploy_store(cluster.shard(0), clock, ALICE)
    receipt = run_tx(
        cluster.shard(0), clock, ALICE,
        Move1Payload(contract=store, target_chain=cluster.shard(1).chain_id),
    )
    assert receipt.success
    # In transit: no shard holds the active copy.
    assert cluster.locate_contract(store) is None


# ----------------------------------------------------------------------
# Seed-exact decision determinism
# ----------------------------------------------------------------------


def decision_log() -> str:
    """Drive a skewed deterministic load and return the decision log."""
    cluster = ShardedCluster(num_shards=3, seed=11, max_block_txs=10)
    clock = ManualClock()
    # Eight independent owners, each with their own store on shard 0:
    # one put per owner per block.
    owners = [KeyPair.from_name(f"det-owner-{i}") for i in range(8)]
    cluster.fund_all({kp.address: 1_000_000 for kp in owners})
    for kp in owners:
        cluster.shard(0).submit(
            sign_transaction(kp, DeployPayload(code_hash=StoreContract.CODE_HASH))
        )
    cluster.shard(0).produce_block(clock.tick())
    stores = [
        cluster.shard(0).receipts[tx_id].return_value
        for tx_id in [
            tx.tx_id for tx in cluster.shard(0).blocks[-1].transactions
        ]
    ]
    assert len(stores) == 8
    rb = cluster.auto_rebalancer(
        policy=RebalancePolicy(
            hot_enter=0.7,
            hot_exit=0.4,
            min_gap=0.3,
            contract_cooldown=50.0,
            shard_cooldown=0.0,
            max_moves_per_tick=2,
        ),
    )
    for _round in range(9):
        for kp, store in zip(owners, stores):
            cluster.shard(0).submit(
                sign_transaction(kp, CallPayload(store, "put", (1, 1)))
            )
        cluster.shard(0).produce_block(clock.tick())
        cluster.shard(1).produce_block(clock.now)
        cluster.shard(2).produce_block(clock.now)
    rb.evaluate()
    assert rb.decision_log, "the skewed load must trigger decisions"
    return json.dumps(rb.decision_log, sort_keys=True)


def test_decisions_are_seed_exact():
    assert decision_log() == decision_log()
