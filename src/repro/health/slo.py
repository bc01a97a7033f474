"""Rolling-window SLOs with multi-window burn-rate alerting.

An :class:`SloSpec` states an objective — "targets of kind
``relay_lag`` should be healthy at least 75% of the time" — and the
:class:`SloEvaluator` turns the stream of probe samples into a
deterministic alert log using the standard multi-window burn-rate
rule (the Google SRE workbook's alerting recipe, on the simulated
clock):

* *burn rate* over a window is the observed bad fraction divided by
  the error budget (``1 - objective``); burn 1.0 spends the budget
  exactly, burn 2.0 spends it twice as fast as allowed;
* an alert **fires** for a (SLO, target) series when the *fast* window
  burn and the *slow* window burn both exceed their thresholds — the
  fast window makes detection prompt, the slow window suppresses
  one-sample blips;
* a firing alert **resolves** once the fast-window burn drops back
  under its threshold.  Fire and resolve transitions are latched, so
  the alert log records state *changes*, not per-tick noise.

Everything here is pure bookkeeping over (time, healthy) pairs: no
randomness, no wall clock, no dict-ordering dependence (series are
evaluated in sorted key order), so two identically seeded runs
produce byte-identical alert logs.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Sequence, Tuple

from repro.health import probes


@dataclass(frozen=True)
class SloSpec:
    """One rolling-window objective over a probe kind."""

    name: str
    kind: str
    #: target good fraction within a window (error budget is 1 - this)
    objective: float
    fast_window: float = 30.0
    slow_window: float = 60.0
    fast_burn: float = 2.0
    slow_burn: float = 1.0
    severity: str = "page"

    def __post_init__(self):
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {self.objective}")
        if self.fast_window <= 0 or self.slow_window < self.fast_window:
            raise ValueError("need 0 < fast_window <= slow_window")

    @property
    def budget(self) -> float:
        return 1.0 - self.objective


def default_slos() -> Tuple[SloSpec, ...]:
    """The stock objectives the chaos harness and ``Node`` monitors use.

    Tuned so that fault-free seed-matrix runs stay silent while
    sustained injected adversity (a withheld relay, a stalled chain, a
    halted replica) fires within roughly one fast window of the breach.
    """
    return (
        SloSpec("chain-liveness", probes.CHAIN_LIVENESS, objective=0.75),
        SloSpec("relay-lag", probes.RELAY_LAG, objective=0.75),
        SloSpec("replica-staleness", probes.REPLICA_STALENESS, objective=0.75),
        SloSpec("gateway-admission", probes.GATEWAY, objective=0.75),
        SloSpec("mempool-backlog", probes.MEMPOOL_DEPTH, objective=0.75),
        SloSpec(
            "rebalancer-inflight", probes.REBALANCER, objective=0.5, severity="ticket"
        ),
    )


class _Series:
    """Rolling samples + latched alert state for one (SLO, target)."""

    __slots__ = ("samples", "firing", "bad")

    def __init__(self) -> None:
        self.samples: Deque[Tuple[float, bool]] = deque()
        self.firing = False
        #: unhealthy samples currently in the window (kept incrementally
        #: so the all-healthy fast path never scans the deque)
        self.bad = 0


class SloEvaluator:
    """Feeds probe samples through every matching SLO and emits the
    deterministic fire/resolve alert log."""

    def __init__(self, specs: Sequence[SloSpec] = ()):
        self.specs: Tuple[SloSpec, ...] = tuple(specs) if specs else default_slos()
        self._by_kind: Dict[str, List[SloSpec]] = {}
        for spec in self.specs:
            self._by_kind.setdefault(spec.kind, []).append(spec)
        self._by_name: Dict[str, SloSpec] = {spec.name: spec for spec in self.specs}
        self._series: Dict[Tuple[str, str], _Series] = {}
        #: every fire/resolve transition, in simulated-time order
        self.alerts: List[Dict[str, object]] = []

    def observe(self, now: float, kind: str, target: str, healthy: bool) -> None:
        """Record one probe sample against every SLO of its kind."""
        for spec in self._by_kind.get(kind, ()):
            key = (spec.name, target)
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _Series()
            series.samples.append((now, healthy))
            if not healthy:
                series.bad += 1
            horizon = now - spec.slow_window
            while series.samples and series.samples[0][0] < horizon:
                _, was_healthy = series.samples.popleft()
                if not was_healthy:
                    series.bad -= 1

    @staticmethod
    def _burn(
        samples: Deque[Tuple[float, bool]], now: float, window: float, budget: float
    ) -> float:
        low = now - window
        total = bad = 0
        for at, healthy in samples:
            if at >= low:
                total += 1
                if not healthy:
                    bad += 1
        if total == 0:
            return 0.0
        fraction = bad / total
        if budget <= 0.0:
            return float("inf") if fraction else 0.0
        return fraction / budget

    def evaluate(self, now: float) -> List[Dict[str, object]]:
        """Re-judge every series; returns (and logs) new transitions."""
        transitions: List[Dict[str, object]] = []
        for key in sorted(self._series):
            slo_name, target = key
            spec = self._by_name[slo_name]
            series = self._series[key]
            if series.bad == 0:
                if not series.firing:
                    continue  # healthy and quiet: nothing can change
                fast = slow = 0.0
            else:
                fast = self._burn(series.samples, now, spec.fast_window, spec.budget)
                slow = self._burn(series.samples, now, spec.slow_window, spec.budget)
            breached = fast >= spec.fast_burn and slow >= spec.slow_burn
            if breached == series.firing:
                continue
            series.firing = breached
            transitions.append(
                {
                    "at": round(now, 6),
                    "slo": slo_name,
                    "target": target,
                    "state": "firing" if breached else "resolved",
                    "severity": spec.severity,
                    "burn_fast": round(fast, 4),
                    "burn_slow": round(slow, 4),
                }
            )
        self.alerts.extend(transitions)
        return transitions

    def firing(self) -> List[Dict[str, str]]:
        """Currently firing (SLO, target) pairs, sorted."""
        return [
            {"slo": name, "target": target, "severity": self._by_name[name].severity}
            for (name, target) in sorted(self._series)
            if self._series[(name, target)].firing
        ]

    def alert_log_json(self) -> str:
        """The alert log as deterministic JSON lines (one per
        transition) — the byte-exact replay artifact."""
        lines = [
            json.dumps(entry, sort_keys=True, separators=(",", ":"))
            for entry in self.alerts
        ]
        return "\n".join(lines) + ("\n" if lines else "")
