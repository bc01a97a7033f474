"""Per-phase latency analysis of Move traces.

Answers the question behind Figs. 7/8 — *where does cross-chain latency
go?* — from exported spans instead of ad-hoc bookkeeping.  A move trace
(root span ``move``) carries one child span per pipeline phase:

========================  =============================================
``move1``                 Move1 submission → inclusion at the source
``confirm.wait``          inclusion → the Move1 root is ``p``-confirmed
``proof.build``           Merkle proof-bundle construction
``move2``                 proof ready → Move2 inclusion at the target
                          (contains the relay hop, light-client
                          acceptance and the VS/VP/nonce/replay events)
``complete``              the application's completion transactions
========================  =============================================

The **confirmation wait** is deliberately its own phase, separate from
proof construction, relaying and Move2 execution: it is the term the
paper's ``p``-block analysis predicts (``p × block interval``) and the
dominant cost in the Ethereum→Burrow direction, and conflating it with
the protocol work would hide what an operator can actually tune.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.telemetry.metrics import percentile
from repro.telemetry.tracer import Span

#: the Move pipeline in order — client-visible stage → the span the
#: move driver (:func:`repro.ibc.bridge.drive_move`) opens for it under
#: a ``move`` root.  It lives here, at the bottom of the import graph
#: (``chain`` imports ``telemetry``), so the driver, ``MoveHandle.STAGES``
#: and :data:`PHASES` all read the one table.
MOVE_STAGES = {
    "move1": "move1",
    "confirm": "confirm.wait",
    "proof": "proof.build",
    "move2": "move2",
    "complete": "complete",
}

#: pipeline order of the phase spans under a ``move`` root
PHASES = tuple(MOVE_STAGES.values())


@dataclass
class TracePhases:
    """One move trace folded into per-phase durations."""

    trace_id: int
    name: str
    attrs: Dict[str, Any] = field(default_factory=dict)
    phases: Dict[str, float] = field(default_factory=dict)
    start: float = 0.0
    end: float = 0.0
    success: Optional[bool] = None

    @property
    def total(self) -> float:
        return self.end - self.start

    def phase(self, name: str) -> float:
        """Summed duration of one phase (0.0 when absent)."""
        return self.phases.get(name, 0.0)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly view (CLI ``--json`` output)."""
        return {
            "trace": self.trace_id,
            "name": self.name,
            "attrs": dict(self.attrs),
            "phases": {p: self.phases.get(p, 0.0) for p in PHASES},
            "total": self.total,
            "success": self.success,
        }


def trace_phases(spans: Iterable[Span]) -> List[TracePhases]:
    """Fold spans into one :class:`TracePhases` per finished ``move`` trace.

    A phase appearing more than once in a trace (e.g. ``move2`` retry
    attempts under chaos) contributes the *sum* of its durations.
    """
    roots: Dict[int, TracePhases] = {}
    for span in spans:
        if span.parent_id is None and span.name == "move" and span.ended:
            roots[span.trace_id] = TracePhases(
                trace_id=span.trace_id,
                name=span.name,
                attrs=dict(span.attrs),
                start=span.start,
                end=span.end_time,
                success=span.attrs.get("success"),
            )
    for span in spans:
        record = roots.get(span.trace_id)
        if record is None or span.parent_id is None or not span.ended:
            continue
        if span.name in PHASES:
            record.phases[span.name] = record.phases.get(span.name, 0.0) + span.duration
    return [roots[trace_id] for trace_id in sorted(roots)]


def aggregate_phases(traces: Sequence[TracePhases]) -> Dict[str, float]:
    """Mean seconds per phase over a set of traces."""
    if not traces:
        return {phase: 0.0 for phase in PHASES}
    return {
        phase: sum(t.phase(phase) for t in traces) / len(traces)
        for phase in PHASES
    }


def breakdown_rows(traces: Sequence[TracePhases]) -> List[List[Any]]:
    """``[phase, mean, p50, p99, share]`` rows for the CLI table."""
    rows: List[List[Any]] = []
    total_mean = sum(t.total for t in traces) / len(traces) if traces else 0.0
    for phase in PHASES:
        samples = [t.phase(phase) for t in traces]
        mean = sum(samples) / len(samples) if samples else 0.0
        rows.append(
            [
                phase,
                round(mean, 2),
                round(percentile(samples, 0.5), 2) if samples else 0.0,
                round(percentile(samples, 0.99), 2) if samples else 0.0,
                f"{(mean / total_mean * 100) if total_mean else 0.0:.1f}%",
            ]
        )
    rows.append(["total", round(total_mean, 2), "", "", "100.0%" if traces else "0.0%"])
    return rows


def slowest_traces(traces: Sequence[TracePhases], top: int = 10) -> List[TracePhases]:
    """The ``top`` slowest traces, slowest first (ties by trace id)."""
    return sorted(traces, key=lambda t: (-t.total, t.trace_id))[:top]
