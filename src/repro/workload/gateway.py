"""Open-loop client fleets against the request gateway.

The saturation harness behind ``python -m repro gateway`` and
``benchmarks/bench_gateway_saturation.py``: N simulated clients submit
native transfers through a :class:`~repro.gateway.SimNetTransport`
with Poisson arrivals at a configured per-client rate.  Past the
chain's block capacity the bounded admission queue fills and the
gateway sheds — the report splits outcomes by machine-readable reason
code, which is how the benchmark asserts that backpressure is typed
rather than an out-of-memory.

Everything stochastic (arrival times, transfer targets, transport
jitter) draws from the node's seeded simulator RNG, so a run is
replayed byte-identically by its seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.chain.params import burrow_params
from repro.chain.tx import TransferPayload, sign_transaction
from repro.crypto.keys import KeyPair
from repro.gateway import Gateway, GatewayLimits, RequestHandle, SimNetTransport
from repro.metrics.collector import LatencySampler
from repro.node import Node


@dataclass
class GatewayWorkloadReport:
    """Admission-level outcomes of one gateway saturation run."""

    clients: int
    duration: float
    offered_rate: float  # aggregate submissions/second offered
    submitted: int = 0
    confirmed: int = 0
    shed: Dict[str, int] = field(default_factory=dict)  # reason code -> count
    unresolved: int = 0  # still pending when the run ended
    blocks: int = 0
    peak_queue_depth: int = 0
    final_root: str = ""
    latency: LatencySampler = field(default_factory=LatencySampler)

    @property
    def shed_total(self) -> int:
        return sum(self.shed.values())

    @property
    def throughput(self) -> float:
        """Confirmed transactions per simulated second."""
        return self.confirmed / self.duration if self.duration else 0.0

    @property
    def shed_rate(self) -> float:
        return self.shed_total / self.submitted if self.submitted else 0.0

    def to_dict(self) -> dict:
        """JSON-shaped summary (what ``--json`` and the benchmark emit)."""
        samples = self.latency.all_samples()
        return {
            "clients": self.clients,
            "duration": self.duration,
            "offered_rate": self.offered_rate,
            "submitted": self.submitted,
            "confirmed": self.confirmed,
            "throughput": round(self.throughput, 2),
            "shed": dict(sorted(self.shed.items())),
            "shed_rate": round(self.shed_rate, 4),
            "unresolved": self.unresolved,
            "blocks": self.blocks,
            "peak_queue_depth": self.peak_queue_depth,
            "final_root": self.final_root,
            "latency_mean": round(sum(samples) / len(samples), 3) if samples else None,
        }


class GatewayWorkload:
    """N open-loop transfer clients through one gateway-fronted chain."""

    def __init__(
        self,
        clients: int = 64,
        rate_per_client: float = 1.0,
        seed: int = 0,
        limits: Optional[GatewayLimits] = None,
        block_interval: float = 5.0,
        max_block_txs: int = 500,
        transport_latency: float = 0.05,
        transport_jitter: float = 0.05,
    ):
        self.node = Node(
            burrow_params(1, max_block_txs=max_block_txs, block_interval=block_interval),
            seed=seed,
            verify_signatures=False,
        )
        self.gateway = Gateway(
            self.node, limits if limits is not None else GatewayLimits()
        )
        self.transport = SimNetTransport(
            self.gateway, latency=transport_latency, jitter=transport_jitter
        )
        self.rate_per_client = rate_per_client
        self.keypairs = [KeyPair.from_name(f"gw-client-{i}") for i in range(clients)]
        self.node.chain(1).fund({kp.address: 10**12 for kp in self.keypairs})
        self.handles: List[RequestHandle] = []
        self._nonce = 0

    def _submit_one(self, index: int) -> None:
        rng = self.node.sim.rng
        sender = self.keypairs[index]
        target = self.keypairs[rng.randrange(len(self.keypairs))]
        self._nonce += 1
        tx = sign_transaction(
            sender, TransferPayload(to=target.address, amount=1), nonce=self._nonce
        )
        handle = self.transport.submit(tx, 1, client_id=f"gw-client-{index}")
        self.handles.append(handle)

    def _arrival_loop(self, index: int, until: float) -> None:
        rng = self.node.sim.rng
        delay = rng.expovariate(self.rate_per_client)
        if self.node.now + delay > until:
            return
        self.node.sim.schedule(delay, self._arrive, index, until)

    def _arrive(self, index: int, until: float) -> None:
        self._submit_one(index)
        self._arrival_loop(index, until)

    def run(self, duration: float = 120.0, drain: float = 30.0) -> GatewayWorkloadReport:
        """Offer load for ``duration`` simulated seconds, then let the
        system drain for ``drain`` more before reporting."""
        self.gateway.start()
        for index in range(len(self.keypairs)):
            self._arrival_loop(index, until=duration)
        self.node.run(until=duration + drain)
        self.gateway.stop()

        chain = self.node.chain(1)
        report = GatewayWorkloadReport(
            clients=len(self.keypairs),
            duration=duration,
            offered_rate=len(self.keypairs) * self.rate_per_client,
            blocks=chain.height,
            peak_queue_depth=self.gateway.peak_queue_depth[1],
            final_root=chain.head.header.state_root.hex(),
        )
        for handle in self.handles:
            report.submitted += 1
            if handle.error is not None:
                code = handle.error.code
                report.shed[code] = report.shed.get(code, 0) + 1
            elif handle.receipt is not None:
                report.confirmed += 1
                if handle.admitted_at is not None and handle.resolved_at is not None:
                    report.latency.add(
                        "request", handle.resolved_at - handle.admitted_at
                    )
            else:
                report.unresolved += 1
        return report
