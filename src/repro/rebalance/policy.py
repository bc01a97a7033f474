"""The rebalancing decision engine: the one Move-placement policy.

Moves contracts off hot shards in a control loop that can run forever
without thrashing:

* **hysteresis** — a shard becomes *hot* when its composite pressure
  reaches ``hot_enter`` and only stops being hot once pressure falls to
  ``hot_exit``; load oscillating around a single threshold therefore
  cannot flap decisions on and off every tick;
* **cooldowns** — a moved contract is ineligible again for
  ``contract_cooldown`` seconds (counted from *issue*, so even a failed
  move cannot retry in a tight loop), and a shard that just shed
  contracts is left alone for ``shard_cooldown`` seconds so the signal
  window can refill with post-move data before more is taken from it;
* **in-flight accounting** — issued-but-unfinished moves are tracked;
  a contract already moving is never double-moved, and the global
  ``max_inflight`` bound caps concurrent migrations;
* **bounded aggression** — at most ``max_moves_per_tick`` decisions per
  evaluation, which is what the benchmark's no-thrash gate measures;
* **determinism** — candidate ranking breaks ties on address bytes and
  the target shard among all sufficiently-cooler shards is picked by a
  keccak draw keyed on the contract address (:func:`spread_target`),
  so simultaneous movers spread out instead of stampeding onto the
  single coolest shard.  Decisions are a pure function of (view
  sequence, clock), hence replayable byte-for-byte under a fixed seed.

The policy never touches chains, clocks or signals: it consumes
:class:`~repro.rebalance.signals.ShardLoadView` snapshots and emits
:class:`MoveDecision` values.  The :class:`~repro.rebalance.rebalancer
.Rebalancer` owns sampling and actuation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.crypto.keys import Address
from repro.errors import ConfigError
from repro.crypto.hashing import keccak
from repro.rebalance.signals import ShardLoadView


@dataclass(frozen=True)
class MoveDecision:
    """One autonomous rebalancing verdict for a contract.

    ``action`` selects the mechanism: ``"move"`` migrates the contract
    to the target shard (the Move protocol), ``"replicate"`` leaves it
    in place and puts a read-only replica on the target shard instead —
    the right call for a contract whose heat is read traffic that a
    mirror can serve (``docs/REPLICATION.md``).
    """

    contract: Address
    source_shard: int
    target_shard: int
    #: the contract's hotness score at decision time
    score: float
    #: the source shard's composite pressure at decision time
    pressure: float
    decided_at: float
    #: ``"move"`` (relocate the active copy) or ``"replicate"``
    action: str = "move"


def spread_target(contract: Address, candidates: Sequence[int]) -> int:
    """Deterministic owner-keyed pick among candidate target shards.

    Every observer computes the same answer from public data, and a
    crowd of simultaneous movers fans out across all candidates instead
    of stampeding onto one — the property that makes Move-based load
    balancing *decentralized* (paper §IV-B).
    """
    if not candidates:
        raise ValueError("no candidate target shards")
    digest = keccak(b"rebalance", contract.raw)
    return candidates[int.from_bytes(digest[:8], "big") % len(candidates)]


class RebalancePolicy:
    """Hysteresis + cooldown + in-flight-aware decision engine."""

    def __init__(
        self,
        hot_enter: float = 0.8,
        hot_exit: float = 0.5,
        min_gap: float = 0.3,
        contract_cooldown: float = 300.0,
        shard_cooldown: float = 60.0,
        max_moves_per_tick: int = 4,
        max_inflight: int = 8,
        replicate_read_ratio: float = 0.0,
    ):
        if not 0.0 < hot_enter:
            raise ConfigError("hot_enter must be positive")
        if not 0.0 <= hot_exit <= hot_enter:
            raise ConfigError("hot_exit must lie in [0, hot_enter]")
        if min_gap <= 0.0:
            raise ConfigError("min_gap must be positive")
        if contract_cooldown < 0.0 or shard_cooldown < 0.0:
            raise ConfigError("cooldowns must be non-negative")
        if max_moves_per_tick < 1:
            raise ConfigError("max_moves_per_tick must be at least 1")
        if max_inflight < 1:
            raise ConfigError("max_inflight must be at least 1")
        if replicate_read_ratio < 0.0:
            raise ConfigError("replicate_read_ratio must be non-negative")
        self.hot_enter = hot_enter
        self.hot_exit = hot_exit
        self.min_gap = min_gap
        self.contract_cooldown = contract_cooldown
        self.shard_cooldown = shard_cooldown
        self.max_moves_per_tick = max_moves_per_tick
        self.max_inflight = max_inflight
        #: the replicate-vs-move arm: a hot contract whose replica-read
        #: rate is at least this multiple of its (write) hotness score
        #: is *replicated* to the target shard instead of moved — reads
        #: fan out to the mirror while writes stay put.  0.0 disables
        #: the arm (every decision is a move, the pre-replication
        #: behavior).
        self.replicate_read_ratio = replicate_read_ratio
        #: hysteresis latch per shard
        self._hot: Dict[int, bool] = {}
        #: contract -> simulated time before which it may not move again
        self._contract_cooldown_until: Dict[Address, float] = {}
        #: shard -> simulated time before which no more moves leave it
        self._shard_cooldown_until: Dict[int, float] = {}
        #: issued but unfinished moves
        self._inflight: Dict[Address, MoveDecision] = {}

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    def is_hot(self, shard: int) -> bool:
        """Current hysteresis latch state of a shard."""
        return self._hot.get(shard, False)

    @property
    def inflight(self) -> Dict[Address, MoveDecision]:
        """Issued-but-unfinished moves (copy; keyed by contract)."""
        return dict(self._inflight)

    def cooldown_remaining(self, contract: Address, now: float) -> float:
        """Seconds until ``contract`` may move again (0.0 = eligible)."""
        return max(0.0, self._contract_cooldown_until.get(contract, 0.0) - now)

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def decide(self, view: ShardLoadView, now: float) -> List[MoveDecision]:
        """Evaluate one snapshot; returns the moves to issue now.

        The caller must report every issued decision via
        :meth:`note_issued` and its outcome via :meth:`note_finished` —
        that is what keeps the in-flight table honest across ticks.
        """
        self._update_latches(view)
        budget = min(
            self.max_moves_per_tick, self.max_inflight - len(self._inflight)
        )
        if budget <= 0:
            return []
        decisions: List[MoveDecision] = []
        hot_shards = [
            shard
            for shard in view.shard_ids()
            if self._hot.get(shard, False)
            and now >= self._shard_cooldown_until.get(shard, 0.0)
        ]
        # Hottest first; index breaks pressure ties deterministically.
        hot_shards.sort(key=lambda s: (-view.shards[s].pressure, s))
        for shard in hot_shards:
            if budget <= 0:
                break
            pressure = view.shards[shard].pressure
            cool = [
                target
                for target in view.shard_ids()
                if target != shard
                and not self._hot.get(target, False)
                and view.shards[target].pressure <= pressure - self.min_gap
            ]
            if not cool:
                continue
            issued_here = 0
            for contract, score in view.hottest_contracts(shard):
                if budget <= 0:
                    break
                if contract in self._inflight:
                    continue
                if now < self._contract_cooldown_until.get(contract, 0.0):
                    continue
                decisions.append(
                    MoveDecision(
                        contract=contract,
                        source_shard=shard,
                        target_shard=spread_target(contract, cool),
                        score=score,
                        pressure=pressure,
                        decided_at=now,
                        action=self._pick_action(view, contract, score),
                    )
                )
                budget -= 1
                issued_here += 1
            if issued_here and self.shard_cooldown > 0.0:
                self._shard_cooldown_until[shard] = now + self.shard_cooldown
        return decisions

    def _pick_action(
        self, view: ShardLoadView, contract: Address, score: float
    ) -> str:
        """Replicate-vs-move: a read-dominated hot contract is cheaper
        to mirror than to migrate.

        The hotness score measures transaction (write) demand from the
        block stream; ``view.contract_read_rate`` carries replica-served
        reads/second.  When reads outweigh writes by at least
        ``replicate_read_ratio``, moving the contract would just chase
        its readers — a replica on the cool shard absorbs them instead,
        within the staleness bound.  Deterministic: a pure function of
        the view, like every other decision input.
        """
        if self.replicate_read_ratio <= 0.0:
            return "move"
        read_rate = view.contract_read_rate.get(contract, 0.0)
        if read_rate <= 0.0:
            return "move"
        if read_rate >= self.replicate_read_ratio * max(score, 1e-9):
            return "replicate"
        return "move"

    def _update_latches(self, view: ShardLoadView) -> None:
        for shard in view.shard_ids():
            pressure = view.shards[shard].pressure
            if self._hot.get(shard, False):
                if pressure <= self.hot_exit:
                    self._hot[shard] = False
            elif pressure >= self.hot_enter:
                self._hot[shard] = True

    # ------------------------------------------------------------------
    # In-flight accounting
    # ------------------------------------------------------------------

    def note_issued(self, decision: MoveDecision, now: float) -> None:
        """Record that a decision was actually actuated.

        The contract cooldown starts at *issue* time: even if the move
        later fails, the contract cannot be re-decided within the
        window, so a persistent failure degrades to one attempt per
        cooldown instead of a retry storm.
        """
        self._inflight[decision.contract] = decision
        if self.contract_cooldown > 0.0:
            self._contract_cooldown_until[decision.contract] = (
                now + self.contract_cooldown
            )

    def note_finished(
        self, contract: Address, success: bool, now: float
    ) -> Optional[MoveDecision]:
        """Close out an in-flight move; returns its decision, if known."""
        return self._inflight.pop(contract, None)
