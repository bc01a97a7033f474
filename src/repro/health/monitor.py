"""The health monitor: probes + SLO evaluation + flight recording on
one periodic simulated-clock loop, which ``stop()`` cancels.

A :class:`HealthMonitor` is hosted the way a
:class:`~repro.rebalance.rebalancer.Rebalancer` is — built over a
simulator and a telemetry bundle, attached to a
:class:`~repro.node.node.Node` via ``node.attach_health()`` (or wired
into a chaos run via ``run_chaos(health=True)``) — and every
``interval`` simulated seconds it:

1. samples every attached probe (:mod:`repro.health.probes`), updating
   the per-target health map and recording transitions;
2. feeds the samples to the :class:`~repro.health.slo.SloEvaluator`,
   which appends any fire/resolve transitions to the deterministic
   alert log;
3. snapshots the flight recorder's metric whitelist, and — when a new
   alert fired this tick — dumps a postmortem bundle.

Two push-style entry points complete the flight-recorder triggers:
:meth:`on_fault` (wire it into ``FaultInjector.observers``) and
:meth:`on_violation` (assign it to ``InvariantChecker.on_violation``)
record the event and dump a bundle immediately, so the recording
exists even when the violation aborts the run.

The monitor is strictly read-only over the system it watches: it draws
no randomness and sends no messages, so enabling it cannot change any
workload outcome — only add its own tick events to the simulator.
"""

from __future__ import annotations

from math import inf
from typing import Dict, List, Optional, Sequence

from repro.errors import ConfigError
from repro.health.recorder import FlightRecorder, bundle_json
from repro.health.slo import SloEvaluator, SloSpec
from repro.net.sim import EventHandle
from repro.telemetry import Telemetry

#: how many health transitions a postmortem bundle carries
TRANSITION_TAIL = 32


class HealthMonitor:
    """Periodic health sampling, SLO alerting and flight recording."""

    def __init__(
        self,
        sim,
        telemetry: Optional[Telemetry] = None,
        interval: float = 5.0,
        slos: Sequence[SloSpec] = (),
    ):
        if not 0 < interval < inf:
            raise ConfigError(f"interval must be finite and positive, got {interval!r}")
        self.sim = sim
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self.interval = interval
        self.probes: List[object] = []
        self.evaluator = SloEvaluator(slos)
        self.recorder = FlightRecorder()
        #: latest healthy/unhealthy judgement per target
        self.states: Dict[str, bool] = {}
        #: every health-state change, in simulated-time order
        self.transitions: List[Dict[str, object]] = []
        #: the sampling loop while running; None while stopped
        self._loop: Optional[EventHandle] = None
        self._ticks = 0
        metrics = self.telemetry.metrics
        self._m_ticks = metrics.counter("health_ticks_total")
        self._m_postmortems = metrics.counter("health_postmortems_total")
        # per-target health_state gauges, pre-bound off the hot path
        self._state_gauges: Dict[str, object] = {}

    # ------------------------------------------------------------------
    # Assembly
    # ------------------------------------------------------------------

    @classmethod
    def for_node(cls, node) -> "HealthMonitor":
        """The stock probe set over a node: chain liveness, relay lag,
        mempool depth, plus replica staleness and rebalancer probes
        when those components are attached.  Build it *after* attaching
        replication/rebalancing (or add probes later)."""
        from repro.health import probes as p

        monitor = cls(node.sim, telemetry=node.telemetry)
        monitor.add_probe(p.ChainLivenessProbe(node.chains))
        if node.relays:
            monitor.add_probe(p.RelayLagProbe(node.relays))
        monitor.add_probe(p.MempoolDepthProbe(node.chains))
        if node.replication is not None:
            monitor.add_probe(p.ReplicaStalenessProbe(node.replication))
        if node.rebalancer is not None:
            monitor.add_probe(p.RebalancerProbe(node.rebalancer))
        return monitor

    def add_probe(self, probe) -> None:
        """Attach one probe (sampled every tick, in attachment order)."""
        self.probes.append(probe)

    # ------------------------------------------------------------------
    # Lifecycle (a Simulator.every loop, as the Rebalancer's and Node's)
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._loop is not None

    @property
    def ticks(self) -> int:
        """Completed sampling rounds since construction."""
        return self._ticks

    def start(self) -> None:
        """Begin periodic sampling (idempotent, restart-safe)."""
        if self._loop is None:
            self._loop = self.sim.every(self.interval, self.sample)

    def stop(self) -> None:
        """Stop sampling: the pending tick is cancelled."""
        if self._loop is not None:
            self._loop.cancel()
            self._loop = None

    # ------------------------------------------------------------------
    # One sampling round
    # ------------------------------------------------------------------

    def sample(self) -> List[Dict[str, object]]:
        """Sample every probe, evaluate SLOs, snapshot metrics; dump a
        postmortem if an alert newly fired.  Returns this round's alert
        transitions (tests may call this directly, off the timer)."""
        now = self.sim.now
        self._ticks += 1
        self._m_ticks.inc()
        gauges = self._state_gauges
        for probe in self.probes:
            for s in probe.sample(now):
                previous = self.states.get(s.target, True)
                self.states[s.target] = s.healthy
                gauge = gauges.get(s.target)
                if gauge is None:
                    gauge = self.telemetry.metrics.gauge(
                        "health_state", target=s.target
                    )
                    gauges[s.target] = gauge
                gauge.set(1.0 if s.healthy else 0.0)
                if previous != s.healthy:
                    transition = {
                        "at": round(now, 6),
                        "target": s.target,
                        "to": "healthy" if s.healthy else "unhealthy",
                        "value": round(s.value, 6),
                        "detail": s.detail,
                    }
                    self.transitions.append(transition)
                    self.recorder.record(
                        now,
                        "transition",
                        target=s.target,
                        to=transition["to"],
                        detail=s.detail,
                    )
                self.evaluator.observe(now, probe.kind, s.target, s.healthy)
        transitions = self.evaluator.evaluate(now)
        fired = False
        for alert in transitions:
            self.telemetry.metrics.counter(
                "health_alerts_total", slo=alert["slo"], state=alert["state"]
            ).inc()
            self.recorder.record(
                now,
                "alert",
                slo=alert["slo"],
                target=alert["target"],
                state=alert["state"],
                severity=alert["severity"],
            )
            fired = fired or alert["state"] == "firing"
        self.recorder.snapshot(self.telemetry.metrics)
        if fired:
            self.postmortem("alert")
        return transitions

    # ------------------------------------------------------------------
    # Flight-recorder triggers
    # ------------------------------------------------------------------

    def on_fault(self, event) -> None:
        """Record one injected plan fault and dump a bundle (wire this
        into :attr:`~repro.faults.injector.FaultInjector.observers`)."""
        now = self.sim.now
        self.recorder.record(
            now,
            "fault",
            fault=event.kind,
            chain=event.chain,
            target=event.target,
            duration=event.duration,
            magnitude=event.magnitude,
        )
        self.postmortem("fault")

    def on_violation(self, message: str) -> None:
        """Record one invariant violation and dump a bundle (assign to
        :attr:`~repro.faults.invariants.InvariantChecker.on_violation`;
        runs *before* the raise, so the recording survives the abort)."""
        self.recorder.record(self.sim.now, "invariant_violation", message=message)
        self.postmortem("invariant")

    def postmortem(self, reason: str) -> Dict[str, object]:
        """Dump one bundle now (also the on-demand entry the CLI uses)."""
        self._m_postmortems.inc()
        return self.recorder.dump(
            reason,
            self.sim.now,
            self.states_text(),
            self.transitions[-TRANSITION_TAIL:],
            self.evaluator.firing(),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def states_text(self) -> Dict[str, str]:
        """The health map with readable values, sorted by target."""
        return {
            target: ("healthy" if ok else "unhealthy")
            for target, ok in sorted(self.states.items())
        }

    def firing(self) -> List[Dict[str, str]]:
        """Currently firing alerts (sorted ``slo``/``target`` pairs)."""
        return self.evaluator.firing()

    def alert_log(self) -> List[Dict[str, object]]:
        """Every fire/resolve transition so far, in time order."""
        return list(self.evaluator.alerts)

    def alert_log_json(self) -> str:
        """The alert log as deterministic JSON lines."""
        return self.evaluator.alert_log_json()

    def last_postmortem(self) -> Optional[Dict[str, object]]:
        """The most recent retained bundle, if any."""
        return self.recorder.postmortems[-1] if self.recorder.postmortems else None

    def last_postmortem_json(self) -> str:
        """The most recent bundle as canonical JSON ("" when none)."""
        bundle = self.last_postmortem()
        return bundle_json(bundle) if bundle is not None else ""

    def status(self) -> Dict[str, object]:
        """One operator-facing summary dict (the ``obs status`` body)."""
        states = self.states_text()
        return {
            "ticks": self._ticks,
            "probes": len(self.probes),
            "targets": states,
            "unhealthy": sorted(t for t, v in states.items() if v == "unhealthy"),
            "firing": self.evaluator.firing(),
            "alerts_logged": len(self.evaluator.alerts),
            "transitions": len(self.transitions),
            "postmortems": self.recorder.postmortems_written,
        }
