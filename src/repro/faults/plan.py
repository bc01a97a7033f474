"""Deterministic fault schedules (FoundationDB-style simulation input).

A :class:`FaultPlan` is an immutable, totally ordered list of
:class:`FaultEvent` records — *when* to inject *which* adversity into a
simulated deployment.  Plans are pure data: the same plan applied by
:class:`~repro.faults.injector.FaultInjector` to the same seeded world
replays the same run byte-for-byte, which is what makes a failing chaos
seed a unit test rather than an anecdote.

:meth:`FaultPlan.from_seed` derives a complete mixed-fault schedule from
a single integer — the only input a failure report needs to carry.  The
generator is careful to keep every fault *survivable*:

* at most one validator per chain is crashed or stalled at a time
  (``f = 1`` against the ``f < n/3`` bound of the default 4-validator
  chaos chains), and every crash schedules its recovery;
* partitions cut a minority off (the quorum side keeps committing) and
  always heal;
* header withholding and staleness windows end, so relays catch up;
* all faults start before ``0.7 × duration`` and end by
  ``0.85 × duration``, leaving a quiescent tail for the workload to
  drain and the final invariant sweep to run on a settled system.

Reorg events are generated only for chains named in ``pow_chains`` —
BFT chains have instant finality and never reorg.  Depths are drawn
from ``1 .. p-1`` (absorbable below the confirmation depth).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence, Tuple

from repro.errors import FaultPlanError

#: every fault kind the injector understands
FAULT_KINDS = (
    "drop",              # window: drop messages with probability `magnitude`
    "duplicate",         # window: duplicate messages with probability `magnitude`
    "delay",             # window: add uniform(0, magnitude) seconds of latency
    "partition",         # window: cut `target` (endpoint names, comma-joined) off
    "crash",             # crash validator `target` for `duration`, then recover
    "stall_proposer",    # same mechanics, semantically a freeze, not a death
    "withhold_headers",  # pause the chain's header relay for `duration`
    "stale_headers",     # inflate the relay's delay by `magnitude` for `duration`
    "equivocate",        # feed observers a conflicting header at the current head
    "reorg",             # feed observers a competing branch `magnitude` deep
)

#: message-level kinds applied through the transport fault hook
MESSAGE_KINDS = ("drop", "duplicate", "delay")


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled fault.

    ``chain`` scopes chain-directed faults (0 = whole network);
    ``target`` names a validator or partition group; ``duration`` bounds
    windowed faults; ``magnitude`` is the kind-specific knob
    (probability, extra seconds, or reorg depth).
    """

    time: float
    kind: str
    chain: int = 0
    target: str = ""
    duration: float = 0.0
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(f"unknown fault kind {self.kind!r}")
        if self.time < 0 or self.duration < 0:
            raise FaultPlanError(f"negative time in {self!r}")

    def encode(self) -> bytes:
        """Canonical bytes of this event (for plan fingerprinting)."""
        return "|".join(
            (
                repr(self.time),
                self.kind,
                str(self.chain),
                self.target,
                repr(self.duration),
                repr(self.magnitude),
            )
        ).encode()


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, ordered fault schedule."""

    seed: int
    duration: float
    events: Tuple[FaultEvent, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", tuple(sorted(self.events)))

    def encode(self) -> bytes:
        """Canonical bytes of the whole plan — two plans are the same
        schedule iff their encodings are equal."""
        head = f"plan|{self.seed}|{repr(self.duration)}".encode()
        return b"\n".join((head,) + tuple(event.encode() for event in self.events))

    def counts(self) -> Dict[str, int]:
        """How many events of each kind the plan carries."""
        out: Dict[str, int] = {}
        for event in self.events:
            out[event.kind] = out.get(event.kind, 0) + 1
        return out

    # ------------------------------------------------------------------

    @classmethod
    def from_seed(
        cls,
        seed: int,
        duration: float = 300.0,
        validators: Mapping[int, Sequence[str]] = None,
        pow_chains: Mapping[int, int] = None,
        intensity: float = 1.0,
        kinds: Sequence[str] = None,
    ) -> "FaultPlan":
        """Generate a survivable mixed-fault schedule from ``seed``.

        ``validators`` maps chain id to its validator names (defaults to
        the standard two-chain chaos world: chains 1 and 2, four
        validators each, named like ``val-1-0``).  ``pow_chains`` maps a
        forking chain's id to its confirmation depth ``p`` and enables
        reorg events against it.  ``kinds`` restricts the draw to a
        subset of :data:`FAULT_KINDS` (for deployments without, say, a
        header relay to withhold).  The derivation is deterministic: the
        same arguments always produce a byte-identical plan.
        """
        if validators is None:
            validators = {
                chain_id: [f"val-{chain_id}-{i}" for i in range(4)]
                for chain_id in (1, 2)
            }
        pow_chains = dict(pow_chains or {})
        rng = random.Random(seed)
        last_fault_start = 0.70 * duration
        last_fault_end = 0.85 * duration
        events = []
        #: per-chain earliest time the next crash/stall may begin, so at
        #: most one validator per chain is ever down at once
        crash_free_at = {chain_id: 0.0 for chain_id in validators}

        count = max(4, int(duration / 25.0 * intensity))
        drawable = [
            "drop", "duplicate", "delay", "partition",
            "crash", "stall_proposer", "withhold_headers",
            "stale_headers", "equivocate",
        ]
        draw_weights = [2, 2, 2, 1, 2, 1, 1, 1, 1]
        if pow_chains:
            drawable.append("reorg")
            draw_weights.append(2)
        if kinds is not None:
            allowed = set(kinds)
            unknown = allowed - set(FAULT_KINDS)
            if unknown:
                raise FaultPlanError(f"unknown fault kinds {sorted(unknown)}")
            draw_weights = [
                w for k, w in zip(drawable, draw_weights) if k in allowed
            ]
            drawable = [k for k in drawable if k in allowed]
            if not drawable:
                raise FaultPlanError("kinds filter leaves nothing to draw")

        for _ in range(count):
            kind = rng.choices(drawable, weights=draw_weights)[0]
            start = rng.uniform(0.05 * duration, last_fault_start)
            chain_id = rng.choice(sorted(validators))
            if kind in MESSAGE_KINDS:
                window = rng.uniform(5.0, 25.0)
                window = min(window, last_fault_end - start)
                magnitude = {
                    "drop": rng.uniform(0.05, 0.4),
                    "duplicate": rng.uniform(0.1, 0.6),
                    "delay": rng.uniform(0.5, 4.0),
                }[kind]
                events.append(
                    FaultEvent(start, kind, duration=window, magnitude=magnitude)
                )
            elif kind == "partition":
                window = min(rng.uniform(10.0, 30.0), last_fault_end - start)
                # Cut one validator off: the remaining majority keeps
                # its quorum, so the chain stays live through the split.
                isolated = rng.choice(list(validators[chain_id]))
                events.append(
                    FaultEvent(
                        start, kind, chain=chain_id, target=isolated, duration=window
                    )
                )
            elif kind in ("crash", "stall_proposer"):
                window = min(rng.uniform(10.0, 40.0), last_fault_end - start)
                start = max(start, crash_free_at[chain_id])
                if start > last_fault_start or start + window > last_fault_end:
                    continue  # no survivable slot left on this chain
                victim = rng.choice(list(validators[chain_id]))
                crash_free_at[chain_id] = start + window + 5.0
                events.append(
                    FaultEvent(
                        start, kind, chain=chain_id, target=victim, duration=window
                    )
                )
            elif kind == "withhold_headers":
                window = min(rng.uniform(10.0, 30.0), last_fault_end - start)
                events.append(
                    FaultEvent(start, kind, chain=chain_id, duration=window)
                )
            elif kind == "stale_headers":
                window = min(rng.uniform(10.0, 30.0), last_fault_end - start)
                events.append(
                    FaultEvent(
                        start, kind, chain=chain_id,
                        duration=window, magnitude=rng.uniform(1.0, 10.0),
                    )
                )
            elif kind == "equivocate":
                events.append(FaultEvent(start, kind, chain=chain_id))
            elif kind == "reorg":
                reorg_chain = rng.choice(sorted(pow_chains))
                depth_cap = max(1, pow_chains[reorg_chain] - 1)
                depth = rng.randint(1, depth_cap)
                events.append(
                    FaultEvent(start, kind, chain=reorg_chain, magnitude=float(depth))
                )

        return cls(seed=seed, duration=duration, events=tuple(events))
