"""The gateway fleet: N replicas, one admission discipline.

A single gateway is a serving bottleneck long before the chains are:
its flush loop pours at most ``batch_size / flush_interval``
transactions per second however much block space is free.  The fleet
scales that horizontally — N :class:`~repro.gateway.gateway.Gateway`
replicas share the serving load — without giving up any of the single
gateway's guarantees:

* **deterministic routing** — each client is pinned to one replica by a
  stable hash of its client id (sha256, *not* the salted builtin
  ``hash``), so a client's requests stay FIFO within its lanes and a
  replay routes byte-identically;
* **shared admission budget** — replicas do not meter mempool headroom
  independently (N replicas × full headroom would relocate the backlog
  downstream).  The fleet refreshes one
  :class:`~repro.gateway.budget.AdmissionBudget` per flush tick and
  threads it through every replica's flush, so the *sum* of the
  fleet's flushes respects the same bound one gateway would.  The
  replica that flushes first rotates tick by tick, so no replica is
  structurally favored when headroom is scarce;
* **one flush clock** — the fleet owns the flush loop; replicas never
  start their own.  Start/stop is epoch-guarded exactly like the
  single gateway's, so a stop/start cycle cannot leave a stale timer
  double-flushing;
* **replayable evidence** — every admit / park / shed / flush decision
  lands on the fleet's admission log as a tuple of primitives;
  :meth:`GatewayFleet.log_digest` hashes the canonical JSON so two runs
  can be compared byte-for-byte (the fleet determinism properties and
  the ``bench_gateway_fleet`` replay gate do exactly that).

The fleet exposes the same serving surface as a single gateway
(``submit`` / ``move`` / ``view`` / ``watch_contract`` / ``watch_move``
/ ``health`` / ``stats``), so both transports and the :class:`Client`
SDK work unchanged whether they are handed a gateway or a fleet.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro.chain.tx import Transaction
from repro.crypto.keys import Address, KeyPair
from repro.errors import ConfigError
from repro.gateway.budget import AdmissionBudget
from repro.gateway.gateway import Gateway, PriorityLike
from repro.gateway.handles import MoveHandle, RequestHandle
from repro.gateway.limits import GatewayLimits
from repro.gateway.subscription import Subscription
from repro.ibc.bridge import CompletionFactory
from repro.node.node import Node
from repro.telemetry import Telemetry

#: one recorded admission decision: (sim time, kind, replica, chain,
#: class label, client id, batch size).  Primitives only — the log must
#: serialize to canonical JSON for the replay digest.
LogRecord = Tuple[float, str, int, int, str, str, int]


class GatewayFleet:
    """N gateway replicas sharing one admission budget and flush clock."""

    def __init__(
        self,
        node: Node,
        replicas: int = 2,
        limits: Optional[GatewayLimits] = None,
        telemetry: Optional[Telemetry] = None,
    ):
        if not isinstance(replicas, int) or isinstance(replicas, bool) or replicas < 1:
            raise ConfigError(
                f"replicas must be an int >= 1, got {replicas!r} — a fleet "
                "needs at least one gateway to serve"
            )
        self.node = node
        self.limits = limits if limits is not None else GatewayLimits()
        self.telemetry = telemetry if telemetry is not None else node.telemetry
        self.replicas: List[Gateway] = []
        for index in range(replicas):
            replica = Gateway(node, self.limits, self.telemetry)
            replica.fleet = self
            replica.replica_index = index
            self.replicas.append(replica)
        #: client id -> pinned replica, computed once per client (bounded
        #: by ``limits.max_clients``; see :meth:`replica_for`)
        self._pins: Dict[str, Gateway] = {}
        self._budget = AdmissionBudget(node, self.limits)
        self._started = False
        self._epoch = 0
        self._tick = 0
        #: replayable admission evidence (see :data:`LogRecord`)
        self.admission_log: List[LogRecord] = []
        metrics = self.telemetry.metrics
        metrics.gauge("gateway_fleet_replicas").set(replicas)
        self._m_ticks = metrics.counter("gateway_fleet_flush_ticks_total")
        self._m_replica_flushed = {
            i: metrics.counter("gateway_fleet_replica_flushed_total", replica=i)
            for i in range(replicas)
        }

    def __len__(self) -> int:
        return len(self.replicas)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def replica_for(self, client_id: str) -> Gateway:
        """The replica pinned to ``client_id`` (stable across runs and
        processes — sha256 of the id, never the salted builtin hash).

        The pin is a pure function of the id, so it is computed once
        per client and remembered; the table holds at most
        ``limits.max_clients`` pins and drops its oldest past that (an
        evicted client hashes to the same replica again).
        """
        replica = self._pins.get(client_id)
        if replica is None:
            if len(self._pins) >= self.limits.max_clients:
                del self._pins[next(iter(self._pins))]
            digest = hashlib.sha256(client_id.encode("utf-8")).digest()
            replica = self._pins[client_id] = self.replicas[
                int.from_bytes(digest[:8], "big") % len(self.replicas)
            ]
        return replica

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._started

    def start(self) -> None:
        """Start serving: the node's drivers plus the one fleet flush
        loop (idempotent; replicas are marked serving but never own a
        timer)."""
        if self._started:
            return
        self._started = True
        self._epoch += 1
        for replica in self.replicas:
            replica._started = True
        self.node.start()
        self.node.sim.schedule(
            self.limits.flush_interval, self._flush_tick, self._epoch
        )

    def stop(self) -> None:
        """Stop the flush loop and block production."""
        self._started = False
        for replica in self.replicas:
            replica._started = False
        self.node.stop()

    def _flush_tick(self, epoch: int) -> None:
        if not self._started or epoch != self._epoch:
            return  # stopped, or a stale timer from before a restart
        self.flush()
        self.node.sim.schedule(self.limits.flush_interval, self._flush_tick, epoch)

    def flush(self) -> int:
        """One fleet-wide micro-batch: refresh the shared budget once,
        then flush every replica against it, rotating which replica
        goes first so scarce headroom is not always claimed by replica
        0.  Returns the total transactions submitted."""
        self._budget.refresh()
        self._m_ticks.inc()
        count = len(self.replicas)
        start = self._tick % count
        self._tick += 1
        submitted = 0
        for offset in range(count):
            replica = self.replicas[(start + offset) % count]
            n = replica.flush(self._budget)
            self._m_replica_flushed[replica.replica_index].inc(n)
            submitted += n
        return submitted

    # ------------------------------------------------------------------
    # The serving surface (same shape as one Gateway)
    # ------------------------------------------------------------------

    def submit(
        self,
        tx: Transaction,
        chain_id: int,
        client_id: str = "",
        idempotency_key: Optional[str] = None,
        handle: Optional[RequestHandle] = None,
        priority: Optional[PriorityLike] = None,
    ) -> RequestHandle:
        """Admit one transaction via the client's pinned replica."""
        return self.replica_for(client_id).submit(
            tx, chain_id, client_id, idempotency_key, handle, priority
        )

    def move(
        self,
        mover: KeyPair,
        contract: Address,
        source_chain: int,
        target_chain: int,
        completions: Sequence[CompletionFactory] = (),
        client_id: str = "",
        idempotency_key: Optional[str] = None,
    ) -> MoveHandle:
        """Run a cross-chain move via the client's pinned replica."""
        return self.replica_for(client_id).move(
            mover,
            contract,
            source_chain,
            target_chain,
            completions=completions,
            client_id=client_id,
            idempotency_key=idempotency_key,
        )

    def view(self, chain_id: int, target: Address, method: str, *args, fallback: bool = True):
        """Serve a read (reads are stateless — any replica will do)."""
        return self.replicas[0].view(
            chain_id, target, method, *args, fallback=fallback
        )

    def watch_contract(
        self, chain_id: int, target: Address, client_id: str = ""
    ) -> Subscription:
        """Subscribe to a contract's events via the pinned replica."""
        return self.replica_for(client_id).watch_contract(chain_id, target, client_id)

    def watch_move(self, handle: MoveHandle, client_id: str = "") -> Subscription:
        """Subscribe to a move's stage stream via the pinned replica."""
        return self.replica_for(client_id).watch_move(handle, client_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def queue_depth(self, chain_id: int) -> int:
        """Fleet-wide queued (unflushed) requests for one chain."""
        return sum(r.queue_depth(chain_id) for r in self.replicas)

    def class_depths(self, chain_id: int) -> Dict[str, int]:
        """Fleet-wide queue depth per priority class for one chain."""
        totals: Dict[str, int] = {}
        for replica in self.replicas:
            for label, depth in replica.class_depths(chain_id).items():
                totals[label] = totals.get(label, 0) + depth
        return totals

    @property
    def peak_queue_depth(self) -> Dict[int, int]:
        """Per-chain high-water mark, maxed across replicas (the bound
        audit: no replica's queue ever exceeded ``max_queue_depth``)."""
        peaks: Dict[int, int] = {}
        for replica in self.replicas:
            for chain_id, peak in replica.peak_queue_depth.items():
                peaks[chain_id] = max(peaks.get(chain_id, 0), peak)
        return peaks

    def stats(self) -> Dict[str, Dict]:
        """Fleet-wide queue/class stats plus the per-replica split."""
        chains = sorted(self.node.chains)
        return {
            "replicas": len(self.replicas),
            "queued": {c: self.queue_depth(c) for c in chains},
            "classes": {c: self.class_depths(c) for c in chains},
            "peak_queue_depth": dict(self.peak_queue_depth),
            "per_replica": [r.stats() for r in self.replicas],
        }

    def health(self) -> Dict[str, object]:
        """Fleet health: the single-gateway shape with fleet-wide
        queue/class aggregates plus the per-replica queue split, so a
        client polling ``health()`` needs no code change when its
        transport points at a fleet."""
        bound = self.limits.max_queue_depth
        chains = sorted(self.node.chains)
        queues = {c: self.queue_depth(c) for c in chains}
        classes = {c: self.class_depths(c) for c in chains}
        per_replica = [
            {c: r.queue_depth(c) for c in chains} for r in self.replicas
        ]
        monitor = self.node.health
        targets: Dict[str, str] = {}
        alerts: list = []
        if monitor is not None:
            targets = monitor.states_text()
            alerts = monitor.firing()
        degraded = (
            bool(alerts)
            or any(state == "unhealthy" for state in targets.values())
            or any(
                depths[c] >= bound for depths in per_replica for c in chains
            )
        )
        return {
            "serving": self._started,
            "degraded": degraded,
            "replicas": len(self.replicas),
            "queues": queues,
            "classes": classes,
            "per_replica": per_replica,
            "queue_bound": bound,
            "targets": targets,
            "alerts": alerts,
        }

    # ------------------------------------------------------------------
    # The admission log (replay evidence)
    # ------------------------------------------------------------------

    def _record(
        self,
        kind: str,
        replica: int,
        chain_id: int,
        cls: str,
        client: str,
        n: int = 0,
    ) -> None:
        self.admission_log.append(
            (round(self.node.now, 9), kind, replica, chain_id, cls, client, n)
        )

    def log_digest(self) -> str:
        """sha256 over the canonical-JSON admission log — equal digests
        mean byte-identical admission, shed and flush decisions."""
        payload = json.dumps(
            self.admission_log, separators=(",", ":"), sort_keys=False
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
