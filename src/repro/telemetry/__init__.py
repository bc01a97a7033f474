"""Unified telemetry: end-to-end Move-lifecycle tracing plus metrics.

The paper's headline numbers are end-to-end latencies and throughputs,
but the dominant cost of a move — the ``p``-block confirmation wait,
proof construction, the relay hop, Move2's SSTORE replay — used to be
invisible inside the reproduction.  This package makes every stage
observable:

* :class:`Tracer` (:mod:`repro.telemetry.tracer`) — simulated-clock
  spans and events, one trace per logical cross-chain transaction,
  propagated between chains through ``tx.meta``;
* :class:`MetricsRegistry` (:mod:`repro.telemetry.metrics`) — labeled
  counters / gauges / histograms shared by every component of a
  deployment, and :func:`percentile`, the nearest-rank quantile every
  latency figure and table ranks with;
* exporters (:mod:`repro.telemetry.exporters`) — deterministic JSONL
  span dumps, Chrome ``trace_event`` timelines, Prometheus text, the
  ASCII series plot;
* phase analysis (:mod:`repro.telemetry.phases`) — the per-phase
  latency breakdown behind ``repro telemetry breakdown``.

Components take a :class:`Telemetry` bundle.  The default —
:meth:`Telemetry.disabled` — traces into a :class:`NullSink` at
near-zero cost (enforced by ``benchmarks/bench_overhead_telemetry.py``)
while metrics stay live; :meth:`Telemetry.enabled` records spans in
memory for export.  See ``docs/OBSERVABILITY.md``.
"""

from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry, percentile
from repro.telemetry.tracer import (
    META_KEY,
    NULL_SPAN,
    MemorySink,
    NullSink,
    Span,
    Tracer,
    current_span,
    pop_span,
    push_span,
)
from repro.telemetry.exporters import (
    chrome_trace_json,
    registry_to_prometheus,
    span_to_dict,
    spans_to_chrome_trace,
    spans_to_jsonl,
)
from repro.telemetry.phases import (
    PHASES,
    TracePhases,
    aggregate_phases,
    breakdown_rows,
    slowest_traces,
    trace_phases,
)


class Telemetry:
    """One deployment's tracer + metrics registry, shared by all of its
    chains, relays, consensus engines and fault machinery."""

    def __init__(self, tracer: Tracer = None):
        self.tracer = tracer if tracer is not None else Tracer(sink=NullSink())
        self.metrics = MetricsRegistry()

    @classmethod
    def disabled(cls) -> "Telemetry":
        """Metrics on, tracing off (the default for every component)."""
        return cls(tracer=Tracer(sink=NullSink()))

    @classmethod
    def enabled(cls, clock=None) -> "Telemetry":
        """Tracing into memory; bind the simulator clock with
        :meth:`bind_clock` (experiments do this on construction)."""
        return cls(tracer=Tracer(clock=clock, sink=MemorySink()))

    def bind_clock(self, clock) -> None:
        """Point the tracer at an experiment's simulated clock."""
        self.tracer.bind_clock(clock)

    @property
    def enabled_tracing(self) -> bool:
        return self.tracer.enabled


__all__ = [
    "Telemetry",
    "Tracer",
    "Span",
    "NullSink",
    "MemorySink",
    "NULL_SPAN",
    "META_KEY",
    "current_span",
    "push_span",
    "pop_span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile",
    "spans_to_jsonl",
    "spans_to_chrome_trace",
    "chrome_trace_json",
    "span_to_dict",
    "registry_to_prometheus",
    "PHASES",
    "TracePhases",
    "trace_phases",
    "aggregate_phases",
    "breakdown_rows",
    "slowest_traces",
]
