"""Open-loop Zipf-skewed client populations against a gateway fleet.

The repo's one open-loop driver — behind ``python -m repro gateway``,
``benchmarks/bench_gateway_fleet.py`` and the saturation ablation (one
replica, uniform rates, every request ``bulk``, limits too loose to
shed, so the chain's block capacity is the knee).  Up to 10⁴ clients
offer load through a :class:`~repro.gateway.SimNetTransport` pointed
at a :class:`~repro.gateway.GatewayFleet`, with

* **Zipf-skewed rates** — client *i* offers at a rate ∝ 1/(i+1)^s, so
  a few heavy hitters dominate the offered load the way real serving
  populations do (this is what the deficit-round-robin fairness is
  for: the tail of light clients must still get served);
* **a priority mix** — each submission is tagged ``move`` / ``view`` /
  ``bulk`` by configurable proportions (default 5% / 10% / 85%), so
  saturation exercises the classed queue: sheds should land on bulk,
  and move-class latency should stay bounded while bulk is drowning;
* **Poisson arrivals** drawn from the node's seeded simulator RNG —
  one seed replays the whole run, admission decisions included
  (:meth:`~repro.gateway.fleet.GatewayFleet.log_digest` is the
  byte-identity witness the benchmark's replay gate compares).

The report splits outcomes and latency percentiles by class, which is
what ``benchmarks/bench_gateway_fleet.py`` gates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.chain.params import burrow_params
from repro.chain.tx import TransferPayload, sign_transaction
from repro.crypto.keys import KeyPair
from repro.errors import ShedByClass
from repro.gateway import GatewayFleet, GatewayLimits, SimNetTransport
from repro.gateway.classes import FLUSH_ORDER
from repro.telemetry.metrics import percentile
from repro.workload.clients import LatencySampler

#: class labels in flush order (report key order)
CLASS_LABELS = tuple(cls.label for cls in FLUSH_ORDER)


@dataclass
class FleetWorkloadReport:
    """Per-class admission outcomes of one fleet saturation run."""

    clients: int
    replicas: int
    duration: float
    offered_rate: float  # aggregate submissions/second offered
    submitted: int = 0
    confirmed: int = 0
    unresolved: int = 0
    blocks: int = 0
    peak_queue_depth: int = 0
    final_root: str = ""
    log_digest: str = ""
    shed_codes: Dict[str, int] = field(default_factory=dict)
    #: victim class label -> queue sheds charged to it (attribution)
    shed_by_class: Dict[str, int] = field(default_factory=dict)
    offered_by_class: Dict[str, int] = field(default_factory=dict)
    confirmed_by_class: Dict[str, int] = field(default_factory=dict)
    latency: LatencySampler = field(default_factory=LatencySampler)
    #: confirmations resolved by the end of the offer window
    confirmed_in_window: int = field(default=0, init=False)

    @property
    def shed_total(self) -> int:
        return sum(self.shed_codes.values())

    @property
    def throughput(self) -> float:
        """Transactions confirmed per simulated second of the offer
        window; what confirms during the drain is not counted."""
        return self.confirmed_in_window / self.duration if self.duration else 0.0

    def latency_p99(self, label: str) -> Optional[float]:
        """p99 admit→confirm latency of one class (None: no samples)."""
        samples = self.latency.samples(label)
        return percentile(samples, 0.99) if samples else None

    def to_dict(self) -> dict:
        """JSON-shaped summary (what the benchmark emits and gates on)."""
        p99 = {label: self.latency_p99(label) for label in CLASS_LABELS}
        return {
            "clients": self.clients,
            "replicas": self.replicas,
            "duration": self.duration,
            "offered_rate": round(self.offered_rate, 2),
            "submitted": self.submitted,
            "confirmed": self.confirmed,
            "throughput": round(self.throughput, 2),
            "shed_codes": dict(sorted(self.shed_codes.items())),
            "shed_by_class": dict(sorted(self.shed_by_class.items())),
            "offered_by_class": dict(sorted(self.offered_by_class.items())),
            "confirmed_by_class": dict(sorted(self.confirmed_by_class.items())),
            "latency_p99_by_class": {
                label: None if value is None else round(value, 3)
                for label, value in p99.items()
            },
            "unresolved": self.unresolved,
            "blocks": self.blocks,
            "peak_queue_depth": self.peak_queue_depth,
            "final_root": self.final_root,
            "log_digest": self.log_digest,
        }


class FleetWorkload:
    """An open-loop, Zipf-skewed, class-mixed population on one fleet."""

    def __init__(
        self,
        clients: int = 10_000,
        replicas: int = 4,
        total_rate: float = 200.0,
        zipf_s: float = 1.1,
        class_mix: Tuple[float, float, float] = (0.05, 0.10, 0.85),
        seed: int = 0,
        limits: Optional[GatewayLimits] = None,
        block_interval: float = 2.0,
        max_block_txs: int = 300,
        executor_workers: int = 0,
    ):
        self.node_params = burrow_params(
            1,
            max_block_txs=max_block_txs,
            block_interval=block_interval,
            executor_workers=executor_workers,
        )
        from repro.node import Node

        self.node = Node(self.node_params, seed=seed, verify_signatures=False)
        self.limits = limits if limits is not None else GatewayLimits(
            max_queue_depth=256,
            batch_size=16,
            flush_interval=0.5,
            mempool_headroom=4,
        )
        self.fleet = GatewayFleet(self.node, replicas=replicas, limits=self.limits)
        self.transport = SimNetTransport(self.fleet, latency=0.05, jitter=0.05)
        self.total_rate = total_rate
        self.class_mix = class_mix
        # Zipf weights: rate_i ∝ 1/(i+1)^s, normalized to total_rate.
        weights = [1.0 / (i + 1) ** zipf_s for i in range(clients)]
        z = sum(weights)
        self.rates = [total_rate * w / z for w in weights]
        self.client_ids = [f"fleet-client-{i}" for i in range(clients)]
        self.keypairs = [KeyPair.from_name(name) for name in self.client_ids]
        self.node.chain(1).fund({kp.address: 10**12 for kp in self.keypairs})
        #: (class label, handle) per submission, in admission order
        self.submissions: List[Tuple[str, object]] = []
        self._nonce = 0

    def _pick_class(self) -> str:
        move_p, view_p, _bulk_p = self.class_mix
        draw = self.node.sim.rng.random()
        if draw < move_p:
            return "move"
        if draw < move_p + view_p:
            return "view"
        return "bulk"

    def _submit_one(self, index: int) -> None:
        rng = self.node.sim.rng
        sender = self.keypairs[index]
        target = self.keypairs[rng.randrange(len(self.keypairs))]
        self._nonce += 1
        tx = sign_transaction(
            sender, TransferPayload(to=target.address, amount=1), nonce=self._nonce
        )
        label = self._pick_class()
        handle = self.transport.submit(
            tx, 1, client_id=self.client_ids[index], priority=label
        )
        self.submissions.append((label, handle))

    def _arrival_loop(self, index: int, until: float) -> None:
        rng = self.node.sim.rng
        delay = rng.expovariate(self.rates[index])
        if self.node.now + delay > until:
            return
        self.node.sim.schedule(delay, self._arrive, index, until)

    def _arrive(self, index: int, until: float) -> None:
        self._submit_one(index)
        self._arrival_loop(index, until)

    def run(self, duration: float = 60.0, drain: float = 30.0) -> FleetWorkloadReport:
        """Offer load for ``duration`` simulated seconds, then let the
        system drain for ``drain`` more before reporting."""
        self.fleet.start()
        for index in range(len(self.keypairs)):
            self._arrival_loop(index, until=duration)
        self.node.run(until=duration + drain)
        self.fleet.stop()

        chain = self.node.chain(1)
        report = FleetWorkloadReport(
            clients=len(self.keypairs),
            replicas=len(self.fleet),
            duration=duration,
            offered_rate=self.total_rate,
            blocks=chain.height,
            peak_queue_depth=self.fleet.peak_queue_depth[1],
            final_root=chain.head.header.state_root.hex(),
            log_digest=self.fleet.log_digest(),
        )
        for label in CLASS_LABELS:
            report.offered_by_class[label] = 0
            report.confirmed_by_class[label] = 0
        for label, handle in self.submissions:
            report.submitted += 1
            report.offered_by_class[label] += 1
            if handle.error is not None:
                code = handle.error.code
                report.shed_codes[code] = report.shed_codes.get(code, 0) + 1
            elif handle.receipt is not None:
                report.confirmed += 1
                report.confirmed_by_class[label] += 1
                if handle.resolved_at <= duration:
                    report.confirmed_in_window += 1
                if handle.admitted_at is not None and handle.resolved_at is not None:
                    report.latency.add(
                        label, handle.resolved_at - handle.admitted_at
                    )
            else:
                report.unresolved += 1
        # Victim attribution comes from the errors themselves: each
        # ShedByClass names the class that actually lost its slot
        # (which may differ from the enqueuer's when a higher class
        # evicted it).
        for label, handle in self.submissions:
            error = handle.error
            if isinstance(error, ShedByClass) and error.shed_class:
                report.shed_by_class[error.shed_class] = (
                    report.shed_by_class.get(error.shed_class, 0) + 1
                )
        return report
