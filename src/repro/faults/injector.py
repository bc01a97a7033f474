"""Applies a :class:`~repro.faults.plan.FaultPlan` to a live deployment.

The injector is the single place that knows how to turn an abstract
fault event into concrete adversity against the simulation's seams:

* **transport** — it installs itself as the
  :class:`~repro.net.transport.Network` fault hook and keeps a set of
  active windows that drop, duplicate, delay (and thereby reorder)
  messages; partitions isolate endpoints via the network's own
  partition mechanism (refcounted, so overlapping windows compose);
* **consensus** — validators crash, recover and stall through the
  engines' fail-stop API;
* **light clients** — header relays are withheld and released, their
  delivery made stale, and observers are fed equivocating headers and
  competing (reorg) branches built against the source chain's real
  canonical history.

All stochastic choices draw from the injector's *own* ``random.Random``
seeded from the plan, so fault behaviour is reproducible independently
of how the workload consumes the simulator's RNG.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional

from repro.chain.block import BlockHeader
from repro.chain.chain import Chain
from repro.errors import FaultPlanError, StateError
from repro.faults.plan import MESSAGE_KINDS, FaultEvent, FaultPlan
from repro.ibc.headers import HeaderRelay
from repro.net.sim import Simulator
from repro.net.transport import Network
from repro.telemetry import Telemetry


@dataclass
class _MessageWindow:
    end: float
    kind: str  # "drop" | "duplicate" | "delay"
    magnitude: float


class FaultInjector:
    """Schedules and executes the faults of a plan over one simulator."""

    def __init__(
        self,
        sim: Simulator,
        network: Optional[Network] = None,
        chains: Mapping[int, Chain] = None,
        engines: Mapping[int, Any] = None,
        relays: Mapping[int, HeaderRelay] = None,
        seed: int = 0,
    ):
        self.sim = sim
        self.network = network
        self.chains: Dict[int, Chain] = dict(chains or {})
        self.engines: Dict[int, Any] = dict(engines or {})
        self.relays: Dict[int, HeaderRelay] = dict(relays or {})
        first = next(iter(self.chains.values()), None)
        self.telemetry = first.telemetry if first is not None else Telemetry.disabled()
        self.rng = random.Random(seed ^ 0x5FA17)
        self.injected: Dict[str, int] = {}
        #: callbacks invoked with each plan-level FaultEvent as it
        #: fires (per-message drops/delays are not reported here) —
        #: the health plane's flight recorder hooks in through this
        self.observers: List[Any] = []
        self._windows: List[_MessageWindow] = []
        self._isolated: Dict[str, int] = {}  # endpoint -> active windows
        if network is not None:
            network.fault_hook = self._hook

    # ------------------------------------------------------------------
    # Plan application
    # ------------------------------------------------------------------

    def apply(self, plan: FaultPlan) -> None:
        """Schedule every event of the plan relative to *now*."""
        for event in plan.events:
            self.sim.schedule(event.time, self._fire, event)

    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        self.telemetry.metrics.counter("faults_injected_total", kind=kind).inc()

    def _fire(self, event: FaultEvent) -> None:
        self._count(event.kind)
        # Plan-level faults become tagged events on every active trace
        # they can affect (per-message drops/delays only count — they
        # would drown traces in events).
        self.telemetry.tracer.fault_event(
            event.kind,
            chain=event.chain,
            duration=event.duration,
            magnitude=event.magnitude,
        )
        for observer in list(self.observers):
            observer(event)
        if event.kind in MESSAGE_KINDS:
            self._windows.append(
                _MessageWindow(
                    end=self.sim.now + event.duration,
                    kind=event.kind,
                    magnitude=event.magnitude,
                )
            )
            return
        if event.kind == "partition":
            self.isolate(event.target, event.duration)
            return
        if event.kind in ("crash", "stall_proposer"):
            engine = self._engine(event.chain)
            engine.crash(event.target)
            self.sim.schedule(event.duration, engine.recover, event.target)
            return
        if event.kind == "withhold_headers":
            relay = self._relay(event.chain)
            relay.withhold()
            self.sim.schedule(event.duration, relay.release)
            return
        if event.kind == "stale_headers":
            relay = self._relay(event.chain)
            relay.extra_delay += event.magnitude
            self.sim.schedule(
                event.duration,
                lambda: setattr(
                    relay, "extra_delay", max(0.0, relay.extra_delay - event.magnitude)
                ),
            )
            return
        if event.kind == "equivocate":
            self.equivocate(event.chain)
            return
        if event.kind == "reorg":
            depth = int(event.magnitude)
            if depth < 1 or depth + 1 > self._chain(event.chain).height:
                self._count("reorg_skipped")  # chain too short yet
                return
            self.reorg(event.chain, depth)
            return
        raise FaultPlanError(f"injector cannot handle {event.kind!r}")

    # ------------------------------------------------------------------
    # Transport faults
    # ------------------------------------------------------------------

    def _hook(
        self, src: str, dst: str, payload: Any, delay: float
    ) -> Optional[List[float]]:
        now = self.sim.now
        if self._windows and self._windows[0].end <= now:
            self._windows = [w for w in self._windows if w.end > now]
        delays: Optional[List[float]] = None
        for window in self._windows:
            if window.kind == "drop" and self.rng.random() < window.magnitude:
                self._count("msg_dropped")
                return []
            if window.kind == "duplicate" and self.rng.random() < window.magnitude:
                self._count("msg_duplicated")
                base = delays[0] if delays else delay
                delays = [base, base + self.rng.uniform(0.01, 1.0)]
            if window.kind == "delay":
                extra = self.rng.uniform(0.0, window.magnitude)
                self._count("msg_delayed")
                delays = [d + extra for d in (delays or [delay])]
        return delays

    def isolate(self, endpoint: str, duration: float) -> None:
        """Cut ``endpoint`` off from everyone for ``duration`` seconds.

        Overlapping isolations compose: the partition is rebuilt from
        the full set of currently isolated endpoints on every change.
        """
        if self.network is None:
            raise FaultPlanError("no network attached to the injector")
        self._isolated[endpoint] = self._isolated.get(endpoint, 0) + 1
        self._apply_isolation()

        def end() -> None:
            self._isolated[endpoint] -= 1
            if self._isolated[endpoint] <= 0:
                del self._isolated[endpoint]
            self._apply_isolation()

        self.sim.schedule(duration, end)

    def _apply_isolation(self) -> None:
        if not self._isolated:
            self.network.heal()
            return
        # Each isolated endpoint is its own group; every endpoint not
        # named falls into the implicit connected majority.
        self.network.partition(*[[name] for name in sorted(self._isolated)])

    # ------------------------------------------------------------------
    # Header-stream faults
    # ------------------------------------------------------------------

    def equivocate(self, chain_id: int) -> None:
        """Feed observers a conflicting header at the source's head.

        An observer that already holds the honest head keeps the fake as
        a dead-end branch (bumping its ``equivocations`` counter); one
        that is one header behind adopts it as a tie-winning tip until
        the honest chain outgrows it.  Either way it never reaches ``p``
        confirmations.
        """
        source = self._chain(chain_id)
        head = source.head.header
        fake = BlockHeader(
            chain_id=head.chain_id,
            height=head.height,
            parent_hash=head.parent_hash,
            state_root=self._random_root(),
            txs_root=head.txs_root,
            timestamp=head.timestamp,
            proposer="equivocator",
        )
        for observer in self._observers(chain_id):
            try:
                observer.ingest_header(fake)
            except StateError:
                # The observer has not seen the fake's parent yet (its
                # relay is withheld or lagging): the header is detached.
                self._count("equivocate_undeliverable")

    def reorg(self, chain_id: int, depth: int) -> int:
        """Show observers a competing branch of the source chain.

        ``depth`` is the confirmation count of the deepest block the
        branch orphans: the fork point sits ``depth + 1`` below the
        head, and the branch is one block longer than the honest chain,
        so observers adopt it as canonical — exactly what a
        late-arriving heavier PoW branch does.  Roots in the replaced
        suffix become untrusted, so proofs against them stop validating
        (``VS`` fails) until the honest branch outgrows the attacker's
        again.  At ``depth < p`` every orphaned block was still
        unconfirmed and the reorg is silently absorbed; at
        ``depth >= p`` the branch replaces a header peers were entitled
        to trust — the store *detects* this (``deep_reorgs``), never
        absorbs it.  Returns the fork height.
        """
        source = self._chain(chain_id)
        if depth < 1 or depth + 1 > source.height:
            raise FaultPlanError(
                f"reorg depth {depth} out of range for height {source.height}"
            )
        fork_height = source.height - depth - 1
        parent = source.blocks[fork_height].header
        branch: List[BlockHeader] = []
        previous_hash = parent.hash()
        for height in range(fork_height + 1, source.height + 2):
            header = BlockHeader(
                chain_id=chain_id,
                height=height,
                parent_hash=previous_hash,
                state_root=self._random_root(),
                txs_root=self._random_root(),
                timestamp=parent.timestamp + (height - fork_height),
                proposer="attacker",
            )
            branch.append(header)
            previous_hash = header.hash()
        for observer in self._observers(chain_id):
            try:
                for header in branch:
                    observer.ingest_header(header)
            except StateError:
                # The observer has not seen the fork point yet (its
                # relay is withheld or lagging): a detached branch is
                # unadoptable, exactly as for a syncing real node.
                self._count("reorg_undeliverable")
        return fork_height

    # ------------------------------------------------------------------

    def _engine(self, chain_id: int):
        engine = self.engines.get(chain_id)
        if engine is None:
            raise FaultPlanError(f"no consensus engine for chain {chain_id}")
        return engine

    def _relay(self, chain_id: int) -> HeaderRelay:
        relay = self.relays.get(chain_id)
        if relay is None:
            raise FaultPlanError(f"no header relay for chain {chain_id}")
        return relay

    def _chain(self, chain_id: int) -> Chain:
        chain = self.chains.get(chain_id)
        if chain is None:
            raise FaultPlanError(f"unknown chain {chain_id}")
        return chain

    def _observers(self, chain_id: int) -> List[Chain]:
        return [c for cid, c in sorted(self.chains.items()) if cid != chain_id]

    def _random_root(self) -> bytes:
        return self.rng.getrandbits(256).to_bytes(32, "big")
