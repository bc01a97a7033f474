"""Header relay between chains.

Peers that interoperate keep a light client per observed chain
(Section IV-A).  The relay subscribes to the source chain's block
stream and forwards each header to the target chains' light clients —
instantly for in-process tests, or after a simulated network delay when
a :class:`~repro.net.sim.Simulator` is supplied.

Delivery guarantees.  Even when per-header delays jitter (or a fault
injector inflates them), the relay delivers headers to each target in
height order: a header is never scheduled before the previous one for
the same target.  Without this guard, a delayed header ``h`` overtaken
by ``h+1`` would hit the store as a detached child and crash
the relay mid-simulation — an in-order delivery assumption that was
implicit before the fault harness made it explicit.

The relay can also be **withheld** (paused): a malicious or failed
relayer simply stops forwarding, which freezes the targets' view of the
source head — Move2 proofs against newer roots stall until somebody
relays again (:meth:`HeaderRelay.release`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from repro.chain.block import BlockHeader
from repro.chain.chain import Chain
from repro.net.sim import Simulator


class HeaderRelay:
    """Forwards one chain's headers to a set of observers."""

    def __init__(
        self,
        source: Chain,
        targets: Sequence[Chain],
        sim: Optional[Simulator] = None,
        delay: float = 0.0,
    ):
        self.source = source
        self.targets = list(targets)
        self.sim = sim
        self.delay = delay
        #: additional delay injected by faults ("stale headers"); adds
        #: to ``delay`` for every subsequent forward until reset
        self.extra_delay = 0.0
        metrics = source.telemetry.metrics
        self._m_relayed = metrics.counter(
            "relay_headers_relayed_total", chain=source.chain_id
        )
        self._m_withheld = metrics.counter(
            "relay_headers_withheld_total", chain=source.chain_id
        )
        self._withheld: List[BlockHeader] = []
        self._paused = False
        #: per-target simulated time of the last scheduled delivery —
        #: enforces in-order (FIFO) delivery per target under jitter
        self._next_delivery: Dict[int, float] = {}
        for target in self.targets:
            target.observe_chain(source.params)
        # Backfill already-produced headers (e.g. genesis).
        for block in source.blocks:
            self._forward(block.header)
        source.subscribe(lambda block, _receipts: self._forward(block.header))

    def withhold(self) -> None:
        """Stop forwarding: headers queue instead of being delivered."""
        self._paused = True

    def release(self) -> None:
        """Resume forwarding; queued headers go out in height order."""
        self._paused = False
        queued, self._withheld = self._withheld, []
        for header in queued:
            self._deliver(header)

    def _forward(self, header: BlockHeader) -> None:
        if self._paused:
            self._withheld.append(header)
            self._m_withheld.inc()
            return
        self._deliver(header)

    def _deliver(self, header: BlockHeader) -> None:
        self._m_relayed.inc()
        tracer = self.source.telemetry.tracer
        if tracer.enabled and tracer.has_watches():
            for target in self.targets:
                tracer.header_relayed(header.chain_id, target.chain_id, header.height)
        total_delay = self.delay + self.extra_delay
        if self.sim is None or total_delay <= 0:
            for target in self.targets:
                target.ingest_header(header)
            return
        for target in self.targets:
            at = max(
                self.sim.now + total_delay,
                self._next_delivery.get(target.chain_id, 0.0),
            )
            self._next_delivery[target.chain_id] = at
            self.sim.schedule(at - self.sim.now, target.ingest_header, header)


def connect_chains(
    chains: Iterable[Chain],
    sim: Optional[Simulator] = None,
    delay: float = 0.0,
) -> List[HeaderRelay]:
    """Fully mesh a set of chains: every chain observes every other."""
    chains = list(chains)
    relays: List[HeaderRelay] = []
    for source in chains:
        targets = [c for c in chains if c is not source]
        if targets:
            relays.append(HeaderRelay(source, targets, sim=sim, delay=delay))
    return relays
