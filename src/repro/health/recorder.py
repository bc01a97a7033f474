"""The flight recorder: a bounded ring of recent events plus periodic
metric snapshots, dumped as a deterministic postmortem bundle.

Modelled on an aircraft flight recorder: the ring always holds the last
``capacity`` noteworthy events (health transitions, alert transitions,
injected faults, invariant violations), and every monitor tick takes a
snapshot of a fixed whitelist of counters.  When something goes wrong —
an alert fires, an :class:`~repro.faults.invariants.InvariantChecker`
assertion trips, or a fault plan injects a fault — :meth:`dump`
assembles everything into one JSON-serializable bundle: what just
happened (the ring), how the system drifted (metric start/current/
delta), what is unhealthy (the health map), and what is firing.

Determinism: the snapshot metric whitelist is fixed and read through
``registry.total`` (absent names read 0.0), so a bundle from a seeded
run is byte-identical on replay (the chaos detection gate asserts
this).
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence

#: counters snapshotted every tick
SNAPSHOT_METRICS = (
    "faults_injected_total",
    "gateway_admitted_total",
    "gateway_rejected_total",
    "gateway_requests_total",
    "health_alerts_total",
    "rebalance_moves_total",
    "relay_headers_relayed_total",
    "relay_headers_withheld_total",
    "replicate_read_unavailable_total",
    "replicate_rehomes_total",
)


def bundle_json(bundle: Dict[str, object]) -> str:
    """A postmortem bundle as canonical (sorted, compact) JSON."""
    return json.dumps(bundle, sort_keys=True, separators=(",", ":"))


class FlightRecorder:
    """Bounded event ring + metric snapshots + postmortem assembly."""

    def __init__(
        self,
        capacity: int = 256,
        max_postmortems: int = 32,
    ):
        self.capacity = capacity
        self.events: Deque[Dict[str, object]] = deque(maxlen=capacity)
        self.max_postmortems = max_postmortems
        #: retained bundles, oldest first (bounded; see counters below)
        self.postmortems: List[Dict[str, object]] = []
        self.postmortems_written = 0
        self.postmortems_dropped = 0
        self.events_recorded = 0
        self.snapshots_taken = 0
        self._start: Optional[Dict[str, float]] = None
        self._current: Dict[str, float] = {}

    def record(self, at: float, kind: str, **attrs: object) -> None:
        """Append one event to the ring (oldest entries roll off)."""
        self.events_recorded += 1
        self.events.append(
            {
                "at": round(at, 6),
                "kind": kind,
                "attrs": {key: attrs[key] for key in sorted(attrs)},
            }
        )

    def snapshot(self, registry) -> None:
        """Record the whitelisted counter totals (the first call pins
        the ``start`` baseline every later delta is computed against)."""
        current = registry.totals(SNAPSHOT_METRICS)
        if self._start is None:
            self._start = dict(current)
        self._current = current
        self.snapshots_taken += 1

    def dump(
        self,
        reason: str,
        at: float,
        health: Dict[str, str],
        transitions: Sequence[Dict[str, object]],
        alerts: Sequence[Dict[str, object]],
    ) -> Dict[str, object]:
        """Assemble (and retain, up to ``max_postmortems``) one bundle."""
        start = self._start if self._start is not None else {
            name: 0.0 for name in SNAPSHOT_METRICS
        }
        current = self._current if self._current else dict(start)
        bundle = {
            "reason": reason,
            "at": round(at, 6),
            "events": list(self.events),
            "metrics": {
                "start": dict(start),
                "current": dict(current),
                "delta": {
                    name: current[name] - start[name] for name in SNAPSHOT_METRICS
                },
            },
            "health": dict(health),
            "transitions": list(transitions),
            "alerts": list(alerts),
        }
        self.postmortems_written += 1
        if len(self.postmortems) >= self.max_postmortems:
            self.postmortems_dropped += 1
        else:
            self.postmortems.append(bundle)
        return bundle
