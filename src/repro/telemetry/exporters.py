"""Serialize traces and metrics: JSONL, Chrome ``trace_event``,
Prometheus text exposition, and an ASCII bar plot of a series.

All exporters are deterministic: spans are ordered by ``(trace_id,
start, span_id)``, JSON keys are sorted, and floats serialize via
``repr`` semantics — two identically seeded runs therefore export
byte-identical documents (asserted by the chaos determinism test).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.telemetry.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.telemetry.tracer import Span


def _ordered(spans: Iterable[Span]) -> List[Span]:
    return sorted(spans, key=lambda s: (s.trace_id, s.start, s.span_id))


def span_to_dict(span: Span) -> Dict[str, Any]:
    """One span as a plain JSON-serializable dict."""
    return {
        "trace": span.trace_id,
        "span": span.span_id,
        "parent": span.parent_id,
        "name": span.name,
        "start": span.start,
        "end": span.end_time,
        "attrs": dict(span.attrs),
        "events": [
            {"name": e.name, "time": e.time, "attrs": dict(e.attrs)}
            for e in span.events
        ],
    }


def spans_to_jsonl(spans: Iterable[Span]) -> str:
    """One JSON object per line, one line per span."""
    lines = [
        json.dumps(span_to_dict(span), sort_keys=True, separators=(",", ":"))
        for span in _ordered(spans)
    ]
    return "\n".join(lines) + ("\n" if lines else "")


def spans_to_chrome_trace(spans: Iterable[Span]) -> Dict[str, Any]:
    """The Chrome ``trace_event`` document (load in ``chrome://tracing``
    or Perfetto).

    Mapping: one *process* row per trace, one *thread* row per chain
    (span attr ``chain``; 0 when unset, e.g. client-side phases), so a
    cross-chain move renders as one group whose rows are the two chains
    plus the client.  Simulated seconds become microseconds; durations
    of still-open spans are clamped to 0.  Span events become instant
    events on the same row.
    """
    events: List[Dict[str, Any]] = []
    trace_ids = []
    for span in _ordered(spans):
        if span.trace_id not in trace_ids:
            trace_ids.append(span.trace_id)
            events.append(
                {
                    "ph": "M",
                    "pid": span.trace_id,
                    "name": "process_name",
                    "args": {"name": f"trace {span.trace_id}: {span.name}"},
                }
            )
        tid = int(span.attrs.get("chain", 0) or 0)
        end = span.end_time if span.end_time is not None else span.start
        events.append(
            {
                "ph": "X",
                "pid": span.trace_id,
                "tid": tid,
                "name": span.name,
                "cat": "span",
                "ts": span.start * 1e6,
                "dur": max(0.0, end - span.start) * 1e6,
                "args": dict(span.attrs),
            }
        )
        for ev in span.events:
            events.append(
                {
                    "ph": "i",
                    "pid": span.trace_id,
                    "tid": tid,
                    "name": ev.name,
                    "cat": "event",
                    "ts": ev.time * 1e6,
                    "s": "t",
                    "args": dict(ev.attrs),
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def chrome_trace_json(spans: Iterable[Span]) -> str:
    """:func:`spans_to_chrome_trace` as a deterministic JSON string."""
    return json.dumps(spans_to_chrome_trace(spans), sort_keys=True, separators=(",", ":"))


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------

_QUANTILES = (0.5, 0.9, 0.99)


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text-format spec:
    backslash, double quote and newline must be written as ``\\\\``,
    ``\\"`` and ``\\n`` inside the quoted value."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _labels_text(labels, extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _number(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def registry_to_prometheus(registry: MetricsRegistry) -> str:
    """The whole registry in Prometheus text exposition format.

    Counters and gauges render one sample per label set; histograms
    render summary-style ``quantile`` samples plus ``_count`` and
    ``_sum`` (quantiles are exact up to the histogram's retained-sample
    bound; past it a ``_dropped`` sample reports how many observations
    the quantiles no longer cover).
    """
    lines: List[str] = []
    seen_types: Dict[str, str] = {}
    for instrument in registry.instruments():
        name = instrument.name
        if isinstance(instrument, Counter):
            kind = "counter"
        elif isinstance(instrument, Gauge):
            kind = "gauge"
        elif isinstance(instrument, Histogram):
            kind = "summary"
        else:  # pragma: no cover - registry only makes the three kinds
            continue
        if name not in seen_types:
            seen_types[name] = kind
            lines.append(f"# TYPE {name} {kind}")
        if isinstance(instrument, (Counter, Gauge)):
            lines.append(f"{name}{_labels_text(instrument.labels)} {_number(instrument.value)}")
        else:
            for q in _QUANTILES:
                try:
                    value = instrument.percentile(q)
                except ValueError:
                    continue
                extra = 'quantile="%s"' % q
                lines.append(
                    f"{name}{_labels_text(instrument.labels, extra)} {_number(value)}"
                )
            lines.append(
                f"{name}_count{_labels_text(instrument.labels)} {instrument.count}"
            )
            lines.append(
                f"{name}_sum{_labels_text(instrument.labels)} {_number(instrument.sum)}"
            )
            if instrument.dropped:
                lines.append(
                    f"{name}_dropped{_labels_text(instrument.labels)} "
                    f"{instrument.dropped}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def format_series(
    series: Sequence[Tuple[float, float]],
    x_label: str = "t",
    y_label: str = "value",
    width: int = 50,
) -> str:
    """Render an (x, y) series as a horizontal ASCII bar plot."""
    if not series:
        return "(empty series)"
    peak = max(y for _x, y in series) or 1.0
    lines = [f"{x_label:>10}  {y_label}"]
    for x, y in series:
        bar = "#" * int(round(width * y / peak))
        lines.append(f"{x:>10.0f}  {y:>8.2f} {bar}")
    return "\n".join(lines)
