"""Tendermint-style BFT block production over the simulated network.

Per height: the round-robin proposer broadcasts a proposal; every
validator that receives it broadcasts a *prevote*; a validator holding
prevotes from more than two-thirds of the set broadcasts a *precommit*;
when the proposer holds a two-thirds precommit quorum the block commits
— the chain executes the mempool contents at that simulated instant —
and the next proposal is scheduled ``block_interval`` later (Tendermint's
``timeout_commit``, 5 s in the paper's configuration).

Every vote travels through :class:`~repro.net.transport.Network`, so
commit latency reflects the emulated WAN: proposal + prevote +
precommit ≈ three one-way quorum latencies on top of the interval.

Validators here always vote for valid proposals (no Byzantine behaviour
is exercised by the paper's performance evaluation); safety-relevant
quorum arithmetic is still enforced and unit-tested.

Restarts are guarded by an epoch, not by cancelling one timer as the
:meth:`~repro.net.sim.Simulator.every` loops are: the engine arms a
timeout per round and a proposal per commit, which votes in flight can
trigger.  Each carries the epoch it was armed under, so one armed
before a stop()/start() cycle fires as a no-op.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, List, Sequence, Set, Tuple

from repro.chain.chain import Chain
from repro.net.sim import Simulator
from repro.net.transport import Network


@dataclass(frozen=True)
class _Proposal:
    height: int
    round: int = 0
    kind: str = "proposal"


@dataclass(frozen=True)
class _Vote:
    height: int
    kind: str  # "prevote" | "precommit"
    voter: str
    round: int = 0


@dataclass(frozen=True)
class _Commit:
    height: int
    kind: str = "commit"


class TendermintEngine:
    """Drives one chain with a simulated validator set."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        chain: Chain,
        regions: Sequence[str],
    ):
        self.sim = sim
        self.network = network
        self.chain = chain
        self.interval = chain.params.block_interval
        self.validators = [f"val-{chain.chain_id}-{i}" for i in range(len(regions))]
        self._validator_set = frozenset(self.validators)
        self._quorum = (2 * len(self.validators)) // 3 + 1
        self._prevotes: Dict[Tuple[str, int], Set[str]] = {}
        self._precommits: Dict[Tuple[str, int], Set[str]] = {}
        self._proposed_txs: Dict[int, list] = {}
        self._precommit_sent: Set[Tuple[str, int]] = set()
        self._prevoted: Set[Tuple[str, int]] = set()
        self._committed_height = 0
        self._running = False
        #: bumped on every start(); a timer scheduled under an older
        #: epoch (left pending across stop()/start()) fires as a no-op
        self._epoch = 0
        self.commit_times: List[float] = []
        #: validators currently crashed (fail-stop; messages neither
        #: sent nor processed).  The protocol tolerates f < n/3.
        self.crashed: Set[str] = set()
        #: how long validators wait for a height to commit before
        #: advancing to the next round with the next proposer
        self.round_timeout = max(3.0, self.interval)
        self.rounds_advanced = 0
        metrics = chain.telemetry.metrics
        self._m_commits = metrics.counter(
            "consensus_commits_total", chain=chain.chain_id, engine="tendermint"
        )
        self._m_rounds = metrics.counter(
            "consensus_rounds_total", chain=chain.chain_id
        )
        self._m_interval = metrics.histogram(
            "consensus_commit_interval_seconds", chain=chain.chain_id
        )
        for validator, region in zip(self.validators, regions):
            network.attach(validator, region, partial(self._on_message, validator))

    # ------------------------------------------------------------------

    def quorum_size(self) -> int:
        """Votes needed for a 2/3+ quorum."""
        return self._quorum

    def proposer_for(self, height: int, round: int = 0) -> str:
        """Round-robin proposer rotation (advances with failed rounds)."""
        return self.validators[(height + round) % len(self.validators)]

    def crash(self, validator: str) -> None:
        """Fail-stop a validator (it stops sending and processing)."""
        self.crashed.add(validator)

    def recover(self, validator: str) -> None:
        """Bring a crashed validator back (it rejoins at new rounds)."""
        self.crashed.discard(validator)

    def start(self) -> None:
        """Schedule the first proposal one interval from now."""
        self._running = True
        self._epoch += 1
        epoch = self._epoch
        self.sim.schedule(
            self.interval, lambda: self._propose(epoch, self.chain.height + 1)
        )

    def stop(self) -> None:
        """Halt block production (pending timers become no-ops, also
        after a later start())."""
        self._running = False

    # ------------------------------------------------------------------

    def _propose(self, epoch: int, height: int, round: int = 0) -> None:
        if (
            not self._running
            or epoch != self._epoch
            or height <= self._committed_height
        ):
            return
        proposer = self.proposer_for(height, round)
        if proposer not in self.crashed:
            # Tendermint fixes the block contents at proposal time; a
            # transaction arriving during the vote rounds waits for the
            # next height (or the next round, if this one fails).
            if height not in self._proposed_txs:
                self._proposed_txs[height] = self.chain.mempool.take(
                    self.chain.params.max_block_txs
                )
            payload = _Proposal(height=height, round=round)
            self.network.broadcast(proposer, self.validators, payload, size_bytes=1024)
            # The proposer processes its own proposal immediately.
            self._on_message(proposer, proposer, payload)
        self.sim.schedule(
            self.round_timeout, self._on_round_timeout, epoch, height, round
        )

    def _on_round_timeout(self, epoch: int, height: int, round: int) -> None:
        """If the height has not committed by now (a crashed proposer,
        or votes lost to crashed validators), the next round's proposer
        takes over."""
        if self._running and epoch == self._epoch and height > self._committed_height:
            self.rounds_advanced += 1
            self._m_rounds.inc()
            self._propose(epoch, height, round + 1)

    def _on_message(self, me: str, src: str, msg: object) -> None:
        if not self._running or me in self.crashed:
            return
        if isinstance(msg, _Vote) and msg.voter not in self._validator_set:
            # Quorum arithmetic must only ever count members of the
            # validator set: a faulty network that duplicates, replays
            # or mis-routes traffic (or an outright forged vote) must
            # not be able to manufacture a 2/3+ quorum.
            return
        if isinstance(msg, _Proposal):
            if msg.height <= self._committed_height:
                return
            if (me, msg.height, msg.round) in self._prevoted:
                return  # one prevote per round (crash faults only)
            # Votes are round-scoped: a fresh round (after a timeout)
            # makes every live validator vote again, which is how
            # recovered validators catch up on quorums whose earlier
            # votes they missed.  Vote *counting* stays per height and
            # deduplicates by voter, so re-votes never double-count.
            self._prevoted.add((me, msg.height, msg.round))
            vote = _Vote(height=msg.height, kind="prevote", voter=me, round=msg.round)
            self.network.broadcast(me, self.validators, vote, size_bytes=128)
            self._on_message(me, me, vote)
            return
        if isinstance(msg, _Vote):
            if msg.height <= self._committed_height:
                return
            if msg.kind == "prevote":
                seen = self._prevotes.setdefault((me, msg.height), set())
                seen.add(msg.voter)
                key = (me, msg.height, msg.round)
                if len(seen) >= self._quorum and key not in self._precommit_sent:
                    self._precommit_sent.add(key)
                    vote = _Vote(
                        height=msg.height, kind="precommit", voter=me, round=msg.round
                    )
                    self.network.broadcast(me, self.validators, vote, size_bytes=128)
                    self._on_message(me, me, vote)
            else:  # precommit
                seen = self._precommits.setdefault((me, msg.height), set())
                seen.add(msg.voter)
                # Each live validator commits locally once it holds a
                # 2/3+ precommit quorum; the simulation materializes
                # the block at the earliest such event, and the height
                # guard prevents double commits.
                if (
                    len(seen) >= self._quorum
                    and msg.height == self._committed_height + 1
                ):
                    self._commit(me, msg.height)
            return
        if isinstance(msg, _Commit):
            self._committed_height = max(self._committed_height, msg.height)

    def _commit(self, proposer: str, height: int) -> None:
        self._committed_height = height
        txs = self._proposed_txs.pop(height, None)
        self.chain.produce_block(self.sim.now, proposer=proposer, txs=txs)
        self._m_commits.inc()
        if self.commit_times:
            self._m_interval.observe(self.sim.now - self.commit_times[-1])
        self.commit_times.append(self.sim.now)
        self.network.broadcast(
            proposer, self.validators, _Commit(height=height), size_bytes=256
        )
        self._gc(height)
        if self._running:
            self.sim.schedule(self.interval, self._propose, self._epoch, height + 1)

    def _gc(self, height: int) -> None:
        """Drop vote bookkeeping for committed heights."""
        for table in (self._prevotes, self._precommits):
            stale = [key for key in table if key[1] <= height]
            for key in stale:
                del table[key]
        self._precommit_sent = {k for k in self._precommit_sent if k[1] > height}
        self._prevoted = {k for k in self._prevoted if k[1] > height}
