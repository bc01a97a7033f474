"""Unit tests for the typed health probes: each probe's healthy /
unhealthy judgement against hand-built system states."""

from types import SimpleNamespace

from repro.chain.params import burrow_params
from repro.crypto.keys import Address
from repro.gateway import Gateway, GatewayLimits
from repro.health.probes import (
    ChainLivenessProbe,
    GatewayQueueProbe,
    MempoolDepthProbe,
    RebalancerProbe,
    RelayLagProbe,
    ReplicaStalenessProbe,
)
from repro.node import Node
from repro.replicate.mirror import HALTED, LIVE, SYNCING, TOMBSTONED
from repro.telemetry import MetricsRegistry
from tests.helpers import fill_replicas


def _chain(chain_id, height=0, block_interval=5.0, max_block_txs=100, mempool=()):
    return SimpleNamespace(
        chain_id=chain_id,
        height=height,
        params=SimpleNamespace(
            block_interval=block_interval, max_block_txs=max_block_txs
        ),
        mempool=list(mempool),
    )


# ----------------------------------------------------------------------
# Chain liveness
# ----------------------------------------------------------------------


class TestChainLiveness:
    def test_advancing_chain_is_healthy(self):
        chain = _chain(1, height=0)
        probe = ChainLivenessProbe({1: chain})
        (sample,) = probe.sample(0.0)
        assert sample.target == "chain:1"
        assert sample.healthy
        chain.height = 1
        (sample,) = probe.sample(5.0)
        assert sample.healthy and sample.value == 0.0

    def test_stall_beyond_budget_is_unhealthy(self):
        chain = _chain(1, height=3, block_interval=5.0)
        probe = ChainLivenessProbe({1: chain}, stall_factor=3.0)
        probe.sample(0.0)
        (sample,) = probe.sample(15.0)  # exactly at budget: still fine
        assert sample.healthy
        (sample,) = probe.sample(15.1)
        assert not sample.healthy
        assert sample.value == 15.1

    def test_budget_scales_with_block_interval(self):
        slow = _chain(3, height=1, block_interval=15.0)
        probe = ChainLivenessProbe({3: slow}, stall_factor=3.0)
        probe.sample(0.0)
        (sample,) = probe.sample(40.0)  # under 45 s: a PoW gap, not a stall
        assert sample.healthy

    def test_targets_sorted_by_chain_id(self):
        probe = ChainLivenessProbe({2: _chain(2), 1: _chain(1)})
        targets = [s.target for s in probe.sample(0.0)]
        assert targets == ["chain:1", "chain:2"]


# ----------------------------------------------------------------------
# Relay lag
# ----------------------------------------------------------------------


def _relay(source, targets, heads):
    observers = []
    for target in targets:
        target.light_client = SimpleNamespace(
            store_for=lambda sid, t=target: SimpleNamespace(
                head_height=heads[t.chain_id]
            )
        )
        observers.append(target)
    return SimpleNamespace(source=source, targets=observers)


class TestRelayLag:
    def test_prompt_observer_is_healthy(self):
        relay = _relay(_chain(1, height=10), [_chain(2)], {2: 9})
        (sample,) = RelayLagProbe([relay]).sample(0.0)
        assert sample.target == "relay:1->2"
        assert sample.healthy and sample.value == 1.0

    def test_lag_beyond_bound_is_unhealthy(self):
        relay = _relay(_chain(1, height=10), [_chain(2)], {2: 6})
        (sample,) = RelayLagProbe([relay], max_lag=3).sample(0.0)
        assert not sample.healthy
        assert sample.value == 4.0

    def test_observer_ahead_clamps_to_zero(self):
        # A store can briefly sit above the source's height (a forged
        # or attacker branch outgrew the honest chain).
        relay = _relay(_chain(1, height=5), [_chain(2)], {2: 7})
        (sample,) = RelayLagProbe([relay]).sample(0.0)
        assert sample.healthy and sample.value == 0.0


# ----------------------------------------------------------------------
# Replica staleness
# ----------------------------------------------------------------------


def _mirror(status, staleness=0, bound=2):
    return SimpleNamespace(
        status=status,
        staleness_bound=bound,
        staleness=lambda height, s=staleness: s,
    )


def _manager(mirrors, source=None):
    source = source if source is not None else _chain(1, height=20)
    relay = SimpleNamespace(source=source, mirrors=mirrors)
    return SimpleNamespace(_relays={(1, 2): relay})


def _addr(byte):
    return Address(bytes([byte]) * 20)


class TestReplicaStaleness:
    def test_live_within_bound_is_healthy(self):
        manager = _manager({_addr(1): _mirror(LIVE, staleness=2, bound=2)})
        (sample,) = ReplicaStalenessProbe(manager).sample(0.0)
        assert sample.target.startswith("replica:1->2:")
        assert sample.healthy

    def test_live_beyond_bound_is_unhealthy(self):
        manager = _manager({_addr(1): _mirror(LIVE, staleness=3, bound=2)})
        (sample,) = ReplicaStalenessProbe(manager).sample(0.0)
        assert not sample.healthy
        assert sample.value == 3.0

    def test_tombstoned_reports_nothing(self):
        manager = _manager({_addr(1): _mirror(TOMBSTONED)})
        assert ReplicaStalenessProbe(manager).sample(0.0) == []

    def test_syncing_gets_grace_then_goes_unhealthy(self):
        mirrors = {_addr(1): _mirror(SYNCING, staleness=9)}
        probe = ReplicaStalenessProbe(_manager(mirrors), sync_grace=6.0)
        (sample,) = probe.sample(0.0)
        assert sample.healthy  # episode just started
        (sample,) = probe.sample(30.0)  # within 6 * 5s grace
        assert sample.healthy
        (sample,) = probe.sample(31.0)
        assert not sample.healthy

    def test_each_sync_episode_gets_fresh_grace(self):
        # syncing -> live -> syncing again (a re-homed mirror after a
        # move) must not inherit the first episode's elapsed clock
        mirrors = {_addr(1): _mirror(SYNCING, staleness=9)}
        probe = ReplicaStalenessProbe(_manager(mirrors), sync_grace=6.0)
        probe.sample(0.0)
        mirrors[_addr(1)] = _mirror(LIVE, staleness=1)
        probe.sample(40.0)
        mirrors[_addr(1)] = _mirror(SYNCING, staleness=9)
        (sample,) = probe.sample(45.0)
        assert sample.healthy
        (sample,) = probe.sample(80.0)
        assert not sample.healthy

    def test_halted_episode_times_out(self):
        mirrors = {_addr(1): _mirror(HALTED, staleness=12)}
        probe = ReplicaStalenessProbe(_manager(mirrors), sync_grace=6.0)
        probe.sample(0.0)
        (sample,) = probe.sample(50.0)
        assert not sample.healthy


# ----------------------------------------------------------------------
# Gateway queues and shed rate
# ----------------------------------------------------------------------


def _gateway(depths, bound=100, metrics=None, classes=None):
    """A one-replica gateway: ``depths`` per chain, split by class as
    ``classes(chain)`` says (all bulk by default)."""
    metrics = metrics if metrics is not None else MetricsRegistry()
    if classes is None:
        classes = lambda c: {"move": 0, "view": 0, "bulk": depths[c]}  # noqa: E731
    replica = SimpleNamespace(
        queue_depth=lambda c: depths[c],
        queues={
            c: SimpleNamespace(depths_by_class=lambda c=c: classes(c)) for c in depths
        },
    )
    return SimpleNamespace(
        limits=SimpleNamespace(max_queue_depth=bound),
        node=SimpleNamespace(chains={c: None for c in depths}),
        replicas=[replica],
        telemetry=SimpleNamespace(metrics=metrics),
    )


class TestGatewayQueue:
    def test_shallow_queues_are_healthy(self):
        samples = GatewayQueueProbe(_gateway({1: 5, 2: 0})).sample(0.0)
        by_target = {s.target: s for s in samples}
        assert by_target["gateway:1"].healthy
        assert by_target["gateway:2"].healthy
        assert by_target["gateway:shed"].healthy

    def test_queue_near_bound_is_unhealthy(self):
        samples = GatewayQueueProbe(
            _gateway({1: 95}, bound=100), depth_threshold=0.9
        ).sample(0.0)
        assert not samples[0].healthy

    def test_classed_gateway_emits_per_class_samples(self):
        gateway = _gateway(
            {1: 30}, bound=100, classes=lambda c: {"move": 0, "view": 5, "bulk": 25}
        )
        samples = GatewayQueueProbe(gateway).sample(0.0)
        by_target = {s.target: s for s in samples}
        assert by_target["gateway:1:move"].value == 0.0
        assert by_target["gateway:1:bulk"].value == 0.25
        assert by_target["gateway:1:bulk"].healthy
        assert "5/100 queued in view" in by_target["gateway:1:view"].detail

    def test_move_class_backlog_trips_the_tight_threshold(self):
        # 30/100 queued moves is far under the 90% aggregate threshold
        # but means the priority plane is broken: moves flush first, so
        # any sustained move backlog is alarming.
        gateway = _gateway(
            {1: 30}, bound=100, classes=lambda c: {"move": 30, "view": 0, "bulk": 0}
        )
        samples = GatewayQueueProbe(gateway, move_threshold=0.25).sample(0.0)
        by_target = {s.target: s for s in samples}
        assert by_target["gateway:1"].healthy
        assert not by_target["gateway:1:move"].healthy

    def test_a_replicated_gateway_is_judged_by_its_fullest_replica(self):
        # 3 of 10 slots on each of 4 replicas: no replica is near its
        # bound, so neither the probe nor Gateway.health() may read the
        # 12 queued in total as 120 % full.
        node = Node(burrow_params(1), verify_signatures=False)
        gateway = Gateway(node, GatewayLimits(max_queue_depth=10), replicas=4)
        fill_replicas(gateway, 1, per_replica=3)
        by_target = {s.target: s for s in GatewayQueueProbe(gateway).sample(0.0)}
        assert by_target["gateway:1"].value == 0.3
        assert by_target["gateway:1"].healthy
        assert by_target["gateway:1:bulk"].value == 0.3
        assert gateway.health()["degraded"] is False

    def test_shed_rate_is_delta_based(self):
        metrics = MetricsRegistry()
        probe = GatewayQueueProbe(
            _gateway({1: 0}, metrics=metrics), shed_threshold=0.5
        )
        metrics.counter("gateway_requests_total").inc(10)
        metrics.counter("gateway_rejected_total").inc(8)
        shed = probe.sample(0.0)[-1]
        assert not shed.healthy and shed.value == 0.8
        # no new traffic since: the *delta* rate drops back to zero
        shed = probe.sample(5.0)[-1]
        assert shed.healthy and shed.value == 0.0


# ----------------------------------------------------------------------
# Mempool depth, rebalancer
# ----------------------------------------------------------------------


class TestMempoolDepth:
    def test_backlog_beyond_blocks_worth_is_unhealthy(self):
        chain = _chain(1, max_block_txs=10, mempool=range(31))
        (sample,) = MempoolDepthProbe({1: chain}, max_blocks=3.0).sample(0.0)
        assert not sample.healthy
        assert sample.value == 31.0
        chain.mempool = list(range(30))
        (sample,) = MempoolDepthProbe({1: chain}, max_blocks=3.0).sample(0.0)
        assert sample.healthy


class TestRebalancer:
    def test_inflight_at_bound_is_unhealthy(self):
        policy = SimpleNamespace(inflight={"a": 1, "b": 2}, max_inflight=2)
        (sample,) = RebalancerProbe(SimpleNamespace(policy=policy)).sample(0.0)
        assert sample.target == "rebalancer"
        assert not sample.healthy
        policy.inflight = {"a": 1}
        (sample,) = RebalancerProbe(SimpleNamespace(policy=policy)).sample(0.0)
        assert sample.healthy
