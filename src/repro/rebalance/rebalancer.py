"""The actuation layer: a driver that closes the rebalancing loop.

The :class:`Rebalancer` periodically samples a
:class:`~repro.rebalance.signals.SignalPlane` on the simulated clock,
asks a :class:`~repro.rebalance.policy.RebalancePolicy` what to do, and
issues the resulting Moves through an *actuator* — a plain callable:
the workload's relocation hook
(:meth:`~repro.workload.clients.ScoinWorkload.relocate_actuator`), the
replication manager (:func:`replication_actuator`), or a test stub.

Observability and failure handling:

* every evaluation increments ``rebalance_ticks_total``; every issued
  decision appends a plain-dict entry to :attr:`Rebalancer.decision_log`
  (JSON-serializable — the byte-identical replay gate in CI compares
  these), increments ``rebalance_decisions_total`` and opens a
  ``rebalance.move`` trace carrying a ``rebalance.decide`` event;
* outcomes land in ``rebalance_moves_total{status=ok|failed|timeout|
  error|skipped}`` and close the trace; ``rebalance_inflight`` tracks
  concurrent migrations;
* a move that neither completes nor fails within ``move_timeout`` is
  written off as ``timeout`` so the policy's in-flight table cannot
  leak slots (a late completion after the write-off is ignored);
* an actuator that *raises* is caught and recorded as ``error`` — a
  broken actuation path degrades the control loop to observation, it
  never crashes block production.

The evaluation timer is one :meth:`~repro.net.sim.Simulator.every`
loop, as :class:`~repro.node.node.Node` block production is: stop()
cancels it, so a stopped rebalancer leaves no tick pending and a
stop()/start() cycle can never leave two loops running.
"""

from __future__ import annotations

from math import inf
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigError, StateError, UnknownChainError
from repro.net.sim import EventHandle
from repro.rebalance.policy import MoveDecision, RebalancePolicy
from repro.rebalance.signals import SignalPlane
from repro.telemetry import Telemetry

#: issues one decision; must eventually call ``done(success)`` exactly once
Actuator = Callable[[MoveDecision, Callable[[bool], None]], None]


class Rebalancer:
    """Watches the signal plane and autonomously issues Moves."""

    def __init__(
        self,
        sim,
        plane: SignalPlane,
        policy: Optional[RebalancePolicy] = None,
        actuator: Optional[Actuator] = None,
        interval: float = 20.0,
        move_timeout: float = 120.0,
        telemetry: Optional[Telemetry] = None,
    ):
        if not 0 < interval < inf:
            raise ConfigError(f"interval must be finite and positive, got {interval!r}")
        if not 0 < move_timeout < inf:
            raise ConfigError(
                f"move_timeout must be finite and positive, got {move_timeout!r}"
            )
        self.sim = sim
        self.plane = plane
        self.policy = policy if policy is not None else RebalancePolicy()
        #: None = dry-run: decisions are logged (and cooldowns charged)
        #: but no Move is issued — useful for observing a policy live.
        self.actuator = actuator
        self.interval = interval
        self.move_timeout = move_timeout
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        metrics = self.telemetry.metrics
        self._m_ticks = metrics.counter("rebalance_ticks_total")
        self._m_decisions = metrics.counter("rebalance_decisions_total")
        self._m_inflight = metrics.gauge("rebalance_inflight")
        self._m_moves: Dict[str, Any] = {}
        #: JSON-serializable record of every decision and its outcome —
        #: the replay-determinism artifact.  Entries gain ``status`` and
        #: ``finished_at`` when their move settles.
        self.decision_log: List[Dict[str, Any]] = []
        #: the evaluation loop while running; None while stopped
        self._loop: Optional[EventHandle] = None
        self._ticks = 0

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._loop is not None

    @property
    def ticks(self) -> int:
        """Completed policy evaluations since construction."""
        return self._ticks

    def start(self) -> None:
        """Begin periodic evaluation (idempotent, restart-safe)."""
        if self._loop is None:
            self._loop = self.sim.every(self.interval, self.evaluate)

    def stop(self) -> None:
        """Cancel evaluation; in-flight moves still settle and report."""
        if self._loop is not None:
            self._loop.cancel()
            self._loop = None

    # ------------------------------------------------------------------
    # One control-loop iteration (public so tests/benches can step it)
    # ------------------------------------------------------------------

    def evaluate(self) -> List[MoveDecision]:
        """Sample → decide → actuate, once; returns the decisions."""
        self._ticks += 1
        self._m_ticks.inc()
        now = self.sim.now
        view = self.plane.sample(now)
        decisions = self.policy.decide(view, now)
        for decision in decisions:
            self._issue(decision)
        return decisions

    def _issue(self, decision: MoveDecision) -> None:
        entry: Dict[str, Any] = {
            "tick": self._ticks,
            "at": decision.decided_at,
            "contract": decision.contract.hex,
            "source": decision.source_shard,
            "target": decision.target_shard,
            "score": decision.score,
            "pressure": decision.pressure,
            "action": decision.action,
        }
        self.decision_log.append(entry)
        self._m_decisions.inc()
        self.policy.note_issued(decision, decision.decided_at)
        self._m_inflight.set(len(self.policy.inflight))
        span = self.telemetry.tracer.start_trace(
            "rebalance.move",
            contract=decision.contract.hex,
            source=decision.source_shard,
            target=decision.target_shard,
            action=decision.action,
        )
        span.event(
            "rebalance.decide",
            score=decision.score,
            pressure=decision.pressure,
        )
        settled = [False]

        def finish(success: bool, status: Optional[str] = None) -> None:
            if settled[0]:
                return  # late completion after a timeout write-off
            settled[0] = True
            outcome = status if status is not None else ("ok" if success else "failed")
            entry["status"] = outcome
            entry["finished_at"] = self.sim.now
            self.policy.note_finished(decision.contract, success, self.sim.now)
            self._m_inflight.set(len(self.policy.inflight))
            counter = self._m_moves.get(outcome)
            if counter is None:
                counter = self.telemetry.metrics.counter(
                    "rebalance_moves_total", status=outcome
                )
                self._m_moves[outcome] = counter
            counter.inc()
            span.end(status=outcome)

        if self.actuator is None:
            finish(False, status="skipped")
            return
        self.sim.schedule(
            self.move_timeout, lambda: finish(False, status="timeout")
        )
        try:
            self.actuator(decision, finish)
        except Exception as exc:  # degrade, never crash the clock
            span.event("rebalance.actuate_error", error=repr(exc))
            finish(False, status="error")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def moves(self, status: Optional[str] = None) -> List[Dict[str, Any]]:
        """Settled decision-log entries, optionally by outcome status."""
        settled = [e for e in self.decision_log if "status" in e]
        if status is None:
            return settled
        return [e for e in settled if e["status"] == status]


def replication_actuator(manager) -> Actuator:
    """Actuate the policy's replicate-vs-move arm.

    ``"replicate"`` decisions place a read-only mirror of the contract
    on the target shard through a
    :class:`~repro.replicate.manager.ReplicationManager` (the contract's
    active copy stays put; the relay syncs the mirror asynchronously).
    Shard ``i`` is chain ``i + 1``, the cluster convention.  ``"move"``
    decisions fail gracefully (the cooldown then throttles retries).  A
    placement the manager refuses (``StateError``,
    ``UnknownChainError``) settles as ``failed``; any other exception
    propagates, so the driver records it as ``error`` with a
    ``rebalance.actuate_error`` span event.
    """

    def actuate(decision: MoveDecision, done: Callable[[bool], None]) -> None:
        if decision.action != "replicate":
            done(False)
            return
        source_id = decision.source_shard + 1
        target_id = decision.target_shard + 1
        try:
            manager.replicate(decision.contract, source_id, [target_id])
        except (StateError, UnknownChainError):
            done(False)
            return
        done(True)

    return actuate
