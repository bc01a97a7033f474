"""Detection coverage: did the alerts name the faults that caused them?

The chaos harness knows exactly which faults it injected (the
:class:`~repro.faults.plan.FaultPlan` is the ground truth) and the
health plane produces an alert log; this module joins the two.  An
alert is *attributed* to a fault when it fired inside the fault's
window (plus a grace period for after-effects — backlog drain, sync
catch-up) and its target matches one of the target prefixes that fault
kind can plausibly degrade.  The CI detection gate asserts that every
firing alert in a seed-matrix run is attributable (no false alarms)
and that the matrix as a whole detects at least one injected fault
(no vacuous silence).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.faults.plan import MESSAGE_KINDS, FaultEvent

#: attribution grace: how long after a fault window ends its
#: after-effects may still legitimately fire an alert
GRACE = 60.0


def fault_target_prefixes(event: FaultEvent) -> Tuple[str, ...]:
    """Health-target prefixes fault ``event`` can plausibly degrade.

    ``"*"`` means any target (network-wide message faults touch every
    path).  Prefix matching keeps the map stable as probes add detail
    to their target names (``relay:1->`` matches every observer of
    chain 1, ``replica:1->`` every mirror sourced from it).
    """
    if event.kind in MESSAGE_KINDS:
        return ("*",)
    if event.kind in ("crash", "stall_proposer", "partition"):
        return (
            f"chain:{event.chain}",
            f"mempool:{event.chain}",
            f"relay:{event.chain}->",
            f"replica:{event.chain}->",
        )
    if event.kind in ("withhold_headers", "stale_headers"):
        return (f"relay:{event.chain}->", f"replica:{event.chain}->")
    if event.kind in ("equivocate", "reorg"):
        return (
            f"chain:{event.chain}",
            f"relay:{event.chain}->",
            f"replica:{event.chain}->",
        )
    return ("*",)


@dataclass
class CoverageReport:
    """The join of one fault plan and one alert log."""

    total_faults: int
    total_firing: int
    #: plan-event indices with at least one attributed alert
    covered: Tuple[int, ...] = ()
    #: alert-log index -> plan-event indices it is attributed to
    attributed: Dict[int, Tuple[int, ...]] = field(default_factory=dict)
    #: alert-log indices of firing alerts matching no fault
    unattributed: Tuple[int, ...] = ()

    @property
    def all_alerts_attributed(self) -> bool:
        return not self.unattributed


def detection_coverage(
    events: Sequence[FaultEvent],
    alerts: Sequence[Dict[str, object]],
) -> CoverageReport:
    """Attribute every *firing* alert to the plan faults that explain
    it (resolved entries close alerts and are never attributed)."""
    covered: set = set()
    attributed: Dict[int, Tuple[int, ...]] = {}
    unattributed: List[int] = []
    firing = [
        (index, alert)
        for index, alert in enumerate(alerts)
        if alert.get("state") == "firing"
    ]
    for alert_index, alert in firing:
        at = float(alert["at"])
        target = str(alert["target"])
        matches: List[int] = []
        for event_index, event in enumerate(events):
            if not event.time <= at <= event.time + event.duration + GRACE:
                continue
            prefixes = fault_target_prefixes(event)
            if any(p == "*" or target.startswith(p) for p in prefixes):
                matches.append(event_index)
        if matches:
            attributed[alert_index] = tuple(matches)
            covered.update(matches)
        else:
            unattributed.append(alert_index)
    return CoverageReport(
        total_faults=len(events),
        total_firing=len(firing),
        covered=tuple(sorted(covered)),
        attributed=attributed,
        unattributed=tuple(unattributed),
    )
