"""Typed health probes: per-target healthy/unhealthy judgements.

A probe turns raw observable state (chain heights, light-client stores,
mirror sync positions, queue depths) into a list of
:class:`ProbeSample` values — one per *target*, a stable string like
``chain:1`` or ``relay:1->2`` that names the thing being judged.  The
:class:`~repro.health.monitor.HealthMonitor` polls every attached probe
on the simulated clock and feeds the samples to the SLO evaluator
(:mod:`repro.health.slo`), so a probe only answers the instantaneous
question "is this target healthy *right now*, and how bad is it?" —
windowing, burn rates and alerting live one layer up.

Determinism contract: a probe reads only simulated-clock state
(heights, header-store positions, mirror states, mempool depths), so
the resulting alert log replays exactly from a seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

#: probe kinds (the ``SloSpec.kind`` they feed)
CHAIN_LIVENESS = "chain_liveness"
RELAY_LAG = "relay_lag"
REPLICA_STALENESS = "replica_staleness"
GATEWAY = "gateway"
MEMPOOL_DEPTH = "mempool_depth"
REBALANCER = "rebalancer"


@dataclass(frozen=True)
class ProbeSample:
    """One instantaneous health judgement for one target."""

    target: str
    healthy: bool
    value: float
    detail: str = ""


def _contract_text(contract) -> str:
    """Short stable text for a contract address."""
    return contract.raw.hex()[:8]


class ChainLivenessProbe:
    """A chain is live while its height keeps advancing.

    Unhealthy once ``now - last_progress`` exceeds ``stall_factor``
    block intervals — the signature of a crashed quorum, a stalled
    proposer rotation, or a partitioned consensus group.
    """

    kind = CHAIN_LIVENESS

    def __init__(self, chains: Dict[int, object], stall_factor: float = 3.0):
        self.chains = dict(chains)
        self.stall_factor = stall_factor
        self._last_height: Dict[int, int] = {}
        self._last_progress: Dict[int, float] = {}
        # (chain_id, chain, target, stall budget), sorted once
        self._watch = [
            (
                chain_id,
                self.chains[chain_id],
                f"chain:{chain_id}",
                stall_factor * self.chains[chain_id].params.block_interval,
            )
            for chain_id in sorted(self.chains)
        ]

    def sample(self, now: float) -> List[ProbeSample]:
        """One judgement per chain, sorted by chain id."""
        samples = []
        for chain_id, chain, target, budget in self._watch:
            height = chain.height
            if height > self._last_height.get(chain_id, -1):
                self._last_height[chain_id] = height
                self._last_progress[chain_id] = now
            stalled_for = now - self._last_progress.setdefault(chain_id, now)
            samples.append(
                ProbeSample(
                    target=target,
                    healthy=stalled_for <= budget,
                    value=stalled_for,
                    detail=f"height {height}, {stalled_for:.0f}s since progress",
                )
            )
        return samples


class RelayLagProbe:
    """Observers must see a source chain's headers promptly.

    For every (source, observer) pair wired through a
    :class:`~repro.ibc.headers.HeaderRelay`, lag is the source's height
    minus the observer's light-client head for that source; a withheld
    or badly delayed relay shows up here within one block.
    """

    kind = RELAY_LAG

    def __init__(self, relays: Iterable[object], max_lag: int = 3):
        self.relays = sorted(relays, key=lambda r: r.source.chain_id)
        self.max_lag = max_lag
        # (source, observer, target name), the wiring is static
        self._pairs = [
            (
                relay.source,
                observer,
                f"relay:{relay.source.chain_id}->{observer.chain_id}",
            )
            for relay in self.relays
            for observer in sorted(relay.targets, key=lambda c: c.chain_id)
        ]

    def sample(self, now: float) -> List[ProbeSample]:
        """One judgement per wired (source, observer) pair."""
        samples = []
        for source, observer, target in self._pairs:
            store = observer.light_client.store_for(source.chain_id)
            head = store.head_height if store is not None else -1
            lag = max(0, source.height - head)
            samples.append(
                ProbeSample(
                    target=target,
                    healthy=lag <= self.max_lag,
                    value=float(lag),
                    detail=f"observer head {head}, source height {source.height}",
                )
            )
        return samples


class ReplicaStalenessProbe:
    """A serving replica must stay within its staleness bound.

    A mirror is unhealthy when it serves but lags its source by more
    than its configured ``staleness_bound``, or when one syncing/halted
    episode lasts longer than ``sync_grace`` source block intervals —
    enough to cover a fault-free (re-)sync, which inherently waits out
    the source's confirmation depth, while a withheld relay or a
    permanently halted mirror overruns it.  Tombstoned mirrors are
    retired on purpose and report nothing.
    """

    kind = REPLICA_STALENESS

    def __init__(self, manager, sync_grace: float = 6.0):
        self.manager = manager
        self.sync_grace = sync_grace
        #: start of the current non-LIVE episode per target (cleared on
        #: LIVE or tombstone, so every re-sync gets a fresh grace)
        self._sync_since: Dict[str, float] = {}

    def sample(self, now: float) -> List[ProbeSample]:
        """One judgement per non-tombstoned mirror, sorted by
        (source, target, contract)."""
        from repro.replicate.mirror import LIVE, TOMBSTONED

        samples = []
        for (source_id, target_id) in sorted(self.manager._relays):
            relay = self.manager._relays[(source_id, target_id)]
            source = relay.source
            for contract in sorted(relay.mirrors, key=lambda a: a.raw):
                mirror = relay.mirrors[contract]
                target = (
                    f"replica:{source_id}->{target_id}:{_contract_text(contract)}"
                )
                if mirror.status == TOMBSTONED:
                    self._sync_since.pop(target, None)
                    continue
                staleness = mirror.staleness(source.height)
                if mirror.status == LIVE:
                    self._sync_since.pop(target, None)
                    healthy = staleness <= mirror.staleness_bound
                else:
                    # syncing/halted: allow each episode one grace
                    # window to reach LIVE, then count it unhealthy
                    since = self._sync_since.setdefault(target, now)
                    grace = self.sync_grace * source.params.block_interval
                    healthy = now - since <= grace
                samples.append(
                    ProbeSample(
                        target=target,
                        healthy=healthy,
                        value=float(staleness),
                        detail=f"{mirror.status}, staleness {staleness}"
                        f"/{mirror.staleness_bound}",
                    )
                )
        return samples


class GatewayQueueProbe:
    """Admission queue depth and shed rate at the front door.

    Per served chain, the queued+parked depth as a fraction of the
    configured bound; plus one aggregate ``gateway:shed`` target whose
    value is the shed fraction of requests since the previous sample.
    The bound is per replica, so a chain is judged by its fullest
    replica, as :meth:`~repro.gateway.gateway.Gateway.health` judges it.

    Each chain also emits one ``gateway:<chain>:<class>`` sample per
    admission class, judged by the replica whose queue holds the most
    of that class.
    The move class gets a much tighter threshold: moves flush ahead of
    everything else, so a move backlog at even a quarter of the bound
    means the priority plane itself is failing, long before the
    aggregate depth probe would fire.
    """

    kind = GATEWAY

    def __init__(
        self,
        gateway,
        depth_threshold: float = 0.9,
        shed_threshold: float = 0.5,
        move_threshold: float = 0.25,
    ):
        self.gateway = gateway
        self.depth_threshold = depth_threshold
        self.shed_threshold = shed_threshold
        self.move_threshold = move_threshold
        self._prev_requests = 0.0
        self._prev_rejected = 0.0

    def sample(self, now: float) -> List[ProbeSample]:
        """Per-chain depth judgements plus the aggregate shed target."""
        samples = []
        bound = self.gateway.limits.max_queue_depth
        replicas = self.gateway.replicas
        for chain_id in sorted(self.gateway.node.chains):
            depth = max(r.queue_depth(chain_id) for r in replicas)
            fraction = depth / bound if bound else 0.0
            samples.append(
                ProbeSample(
                    target=f"gateway:{chain_id}",
                    healthy=fraction < self.depth_threshold,
                    value=fraction,
                    detail=f"{depth}/{bound} queued",
                )
            )
            by_replica = [r.queues[chain_id].depths_by_class() for r in replicas]
            for label in by_replica[0]:
                class_depth = max(depths[label] for depths in by_replica)
                class_fraction = class_depth / bound if bound else 0.0
                threshold = (
                    self.move_threshold
                    if label == "move"
                    else self.depth_threshold
                )
                samples.append(
                    ProbeSample(
                        target=f"gateway:{chain_id}:{label}",
                        healthy=class_fraction < threshold,
                        value=class_fraction,
                        detail=f"{class_depth}/{bound} queued in {label}",
                    )
                )
        totals = self.gateway.telemetry.metrics.totals(
            ("gateway_requests_total", "gateway_rejected_total")
        )
        requests = totals["gateway_requests_total"]
        rejected = totals["gateway_rejected_total"]
        new_requests = requests - self._prev_requests
        new_rejected = rejected - self._prev_rejected
        self._prev_requests, self._prev_rejected = requests, rejected
        shed_rate = new_rejected / new_requests if new_requests > 0 else 0.0
        samples.append(
            ProbeSample(
                target="gateway:shed",
                healthy=shed_rate <= self.shed_threshold,
                value=shed_rate,
                detail=f"{new_rejected:.0f}/{new_requests:.0f} shed since last sample",
            )
        )
        return samples


class MempoolDepthProbe:
    """A mempool backing up beyond a few blocks' worth of transactions
    means block production is not keeping up with admission."""

    kind = MEMPOOL_DEPTH

    def __init__(self, chains: Dict[int, object], max_blocks: float = 3.0):
        self.chains = dict(chains)
        self.max_blocks = max_blocks
        self._watch = [
            (
                self.chains[chain_id],
                f"mempool:{chain_id}",
                max_blocks * self.chains[chain_id].params.max_block_txs,
            )
            for chain_id in sorted(self.chains)
        ]

    def sample(self, now: float) -> List[ProbeSample]:
        """One judgement per chain, sorted by chain id."""
        samples = []
        for chain, target, bound in self._watch:
            depth = len(chain.mempool)
            samples.append(
                ProbeSample(
                    target=target,
                    healthy=depth <= bound,
                    value=float(depth),
                    detail=f"{depth} pending (bound {bound:.0f})",
                )
            )
        return samples


class RebalancerProbe:
    """The rebalancing control loop must not wedge moves in flight.

    Unhealthy when the policy's in-flight set sits at (or above) the
    configured bound — the loop can no longer react to new imbalance.
    """

    kind = REBALANCER

    def __init__(self, rebalancer):
        self.rebalancer = rebalancer

    def sample(self, now: float) -> List[ProbeSample]:
        """The single ``rebalancer`` control-loop judgement."""
        policy = self.rebalancer.policy
        inflight = len(policy.inflight)
        return [
            ProbeSample(
                target="rebalancer",
                healthy=inflight < policy.max_inflight,
                value=float(inflight),
                detail=f"{inflight}/{policy.max_inflight} moves in flight",
            )
        ]
