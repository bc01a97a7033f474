"""Nakamoto-style proof-of-work block production.

Mining is a memoryless race: with total network hash power normalized,
the next block arrives after an exponentially distributed delay with
mean ``block_interval`` (15 s for the Ethereum-flavoured chain), won by
a miner drawn proportionally to hash power.  The winning block
propagates to the other miners over the simulated WAN; when two miners
find blocks within the propagation window a short fork occurs — the
chain's registry counts it (``pow_fork_events_total``) and the first
find stays canonical, which is exactly why peers wait ``p = 6``
confirmations before trusting a header (Section IV-A).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.chain.chain import Chain
from repro.net.sim import Simulator
from repro.net.transport import Network


class PowEngine:
    """Drives one chain with simulated miners."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        chain: Chain,
        regions: Sequence[str],
        hash_powers: Optional[Sequence[float]] = None,
    ):
        self.sim = sim
        self.network = network
        self.chain = chain
        self.interval = chain.params.block_interval
        self.miners = [f"miner-{chain.chain_id}-{i}" for i in range(len(regions))]
        powers = list(hash_powers) if hash_powers is not None else [1.0] * len(self.miners)
        total = sum(powers)
        self._weights = [p / total for p in powers]
        self._running = False
        self._mining_handle = None
        self.commit_times: List[float] = []
        #: a find within this window of the previous one would have
        #: raced its propagation — counted as a (resolved) short fork
        self.propagation_window = 0.3
        metrics = chain.telemetry.metrics
        self._m_commits = metrics.counter(
            "consensus_commits_total", chain=chain.chain_id, engine="pow"
        )
        self._m_forks = metrics.counter(
            "pow_fork_events_total", chain=chain.chain_id
        )
        self._m_interval = metrics.histogram(
            "consensus_commit_interval_seconds", chain=chain.chain_id
        )
        for miner, region in zip(self.miners, regions):
            network.attach(
                miner, region, lambda src, msg, me=miner: self._on_message(me, src, msg)
            )

    def start(self) -> None:
        """Begin mining (first find after an exponential delay)."""
        self._running = True
        self._schedule_next_find()

    def stop(self) -> None:
        """Stop mining and cancel the pending find."""
        self._running = False
        if self._mining_handle is not None:
            self._mining_handle.cancel()

    # ------------------------------------------------------------------

    def _schedule_next_find(self) -> None:
        delay = self.sim.rng.expovariate(1.0 / self.interval)
        self._mining_handle = self.sim.schedule(delay, self._find_block)

    def _find_block(self) -> None:
        if not self._running:
            return
        winner = self.sim.rng.choices(self.miners, weights=self._weights)[0]
        if self.commit_times and self.sim.now - self.commit_times[-1] < self.propagation_window:
            self._m_forks.inc()  # raced the previous block's propagation
        height = self.chain.height + 1
        block = self.chain.produce_block(self.sim.now, proposer=winner)
        self._m_commits.inc()
        if self.commit_times:
            self._m_interval.observe(self.sim.now - self.commit_times[-1])
        self.commit_times.append(self.sim.now)
        self.network.broadcast(
            winner, self.miners, ("block", height, block.hash()), size_bytes=32_768
        )
        self._schedule_next_find()

    def _on_message(self, me: str, src: str, msg: object) -> None:
        # Miners track peer blocks to restart mining on the new head; in
        # this model the race is resolved at find time, so delivery is
        # informational (it still exercises the WAN with block-sized
        # payloads).
        return
