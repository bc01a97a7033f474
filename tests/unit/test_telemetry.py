"""Unit tests for the telemetry subsystem: metrics registry label
handling, histogram percentiles, tracer/span mechanics and the three
exporter formats."""

import json

import pytest

from repro.telemetry import (
    MemorySink,
    MetricsRegistry,
    NullSink,
    Telemetry,
    Tracer,
)
from repro.telemetry.exporters import (
    chrome_trace_json,
    registry_to_prometheus,
    spans_to_chrome_trace,
    spans_to_jsonl,
)
from repro.telemetry.phases import (
    PHASES,
    aggregate_phases,
    breakdown_rows,
    slowest_traces,
    trace_phases,
)
from repro.telemetry.tracer import (
    NULL_SPAN,
    current_span,
    pop_span,
    push_span,
)


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------


class TestRegistryLabels:
    def test_same_labels_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("txs_total", chain=1, status="ok")
        b = registry.counter("txs_total", status="ok", chain=1)  # order-free
        assert a is b
        a.inc()
        assert b.value == 1

    def test_different_labels_different_instruments(self):
        registry = MetricsRegistry()
        ok = registry.counter("txs_total", status="ok")
        failed = registry.counter("txs_total", status="failed")
        assert ok is not failed
        ok.inc(3)
        failed.inc()
        assert registry.value("txs_total", status="ok") == 3
        assert registry.value("txs_total", status="failed") == 1
        assert registry.total("txs_total") == 4

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("depth", chain=1)
        with pytest.raises(TypeError):
            registry.gauge("depth", chain=1)

    def test_counter_rejects_negative(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.counter("ops").inc(-1)

    def test_gauge_set_inc_dec(self):
        gauge = MetricsRegistry().gauge("depth")
        gauge.set(10)
        gauge.inc(2)
        gauge.dec(5)
        assert gauge.value == 7


class TestHistogramPercentiles:
    def test_percentiles_match_cdf_convention(self):
        from repro.telemetry import percentile

        histogram = MetricsRegistry().histogram("latency")
        samples = [5.0, 1.0, 3.0, 2.0, 4.0]
        for s in samples:
            histogram.observe(s)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert histogram.percentile(q) == percentile(samples, q)

    def test_count_sum_mean(self):
        histogram = MetricsRegistry().histogram("latency")
        for s in (1.0, 2.0, 3.0):
            histogram.observe(s)
        assert histogram.count == 3
        assert histogram.sum == 6.0
        assert histogram.mean == 2.0

    def test_empty_percentile_raises(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("empty").percentile(0.5)


# ----------------------------------------------------------------------
# Tracer and spans
# ----------------------------------------------------------------------


def _clocked_tracer():
    clock = [0.0]
    tracer = Tracer(clock=lambda: clock[0], sink=MemorySink())
    return clock, tracer


class TestTracer:
    def test_disabled_tracer_returns_null_span(self):
        tracer = Tracer(sink=NullSink())
        assert tracer.start_trace("move") is NULL_SPAN
        assert tracer.start_span("child", NULL_SPAN) is NULL_SPAN
        assert tracer.span_from_meta("tx", {"telemetry": (1, 2)}) is NULL_SPAN
        assert not tracer.enabled

    def test_span_tree_and_durations(self):
        clock, tracer = _clocked_tracer()
        root = tracer.start_trace("move", source_chain=1)
        clock[0] = 2.0
        child = tracer.start_span("move1", root, chain=1)
        clock[0] = 5.0
        child.end(success=True)
        clock[0] = 7.0
        root.end(success=True)
        assert child.trace_id == root.trace_id
        assert child.parent_id == root.span_id
        assert child.duration == 3.0
        assert root.duration == 7.0

    def test_meta_propagation(self):
        _clock, tracer = _clocked_tracer()
        root = tracer.start_trace("move")
        meta = {}
        Tracer.inject(root, meta)
        span = tracer.span_from_meta("tx.exec", meta, chain=2)
        assert span.trace_id == root.trace_id
        assert span.parent_id == root.span_id
        tracer.meta_event(meta, "mempool.admit", chain=2)
        assert [e.name for e in root.events] == ["mempool.admit"]

    def test_active_span_stack(self):
        _clock, tracer = _clocked_tracer()
        span = tracer.start_trace("move")
        assert current_span() is NULL_SPAN
        push_span(span)
        assert current_span() is span
        current_span().event("inside")
        pop_span()
        assert current_span() is NULL_SPAN
        assert span.events[0].name == "inside"

    def test_header_watch_attribution(self):
        _clock, tracer = _clocked_tracer()
        root = tracer.start_trace("move", source_chain=1, target_chain=2)
        tracer.watch_header(root, source_chain=1, height=5, observer=2)
        tracer.header_relayed(1, 2, 4)  # below the watch height: ignored
        tracer.header_relayed(1, 2, 5)
        tracer.header_accepted(2, 1, 5)
        assert [e.name for e in root.events] == ["relay.forward", "lightclient.accept"]
        assert not tracer.has_watches()  # both halves fired

    def test_watches_dropped_when_trace_ends(self):
        _clock, tracer = _clocked_tracer()
        root = tracer.start_trace("move", source_chain=1)
        tracer.watch_header(root, source_chain=1, height=5)
        root.end(success=False)
        assert not tracer.has_watches()

    def test_fault_event_scoping(self):
        _clock, tracer = _clocked_tracer()
        touched = tracer.start_trace("move", source_chain=1, target_chain=2)
        untouched = tracer.start_trace("move", source_chain=3, target_chain=4)
        tracer.fault_event("crash", chain=2)
        tracer.fault_event("drop", chain=0)  # network-wide: tags both
        assert [e.attrs["kind"] for e in touched.events] == ["crash", "drop"]
        assert [e.attrs["kind"] for e in untouched.events] == ["drop"]


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def _sample_spans():
    clock, tracer = _clocked_tracer()
    root = tracer.start_trace("move", source_chain=1, target_chain=2)
    clock[0] = 1.0
    child = tracer.start_span("move1", root, chain=1)
    child.event("mempool.admit")
    clock[0] = 3.0
    child.end(success=True)
    clock[0] = 4.0
    root.end(success=True)
    return tracer.finished_spans()


class TestExporters:
    def test_jsonl_shape(self):
        lines = spans_to_jsonl(_sample_spans()).splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        root = next(r for r in records if r["parent"] is None)
        child = next(r for r in records if r["parent"] is not None)
        assert root["name"] == "move"
        assert child["name"] == "move1"
        assert child["trace"] == root["trace"]
        assert child["events"][0]["name"] == "mempool.admit"

    def test_chrome_trace_shape(self):
        document = spans_to_chrome_trace(_sample_spans())
        events = document["traceEvents"]
        assert document["displayTimeUnit"] == "ms"
        phases = {}
        for event in events:
            phases.setdefault(event["ph"], []).append(event)
        # one process-name metadata record per trace
        assert [e["name"] for e in phases["M"]] == ["process_name"]
        # complete ("X") events carry microsecond ts/dur and tid=chain
        complete = {e["name"]: e for e in phases["X"]}
        assert complete["move1"]["ts"] == 1_000_000
        assert complete["move1"]["dur"] == 2_000_000
        assert complete["move1"]["tid"] == 1
        # instants ("i") for span events
        assert phases["i"][0]["name"] == "mempool.admit"
        # the full document round-trips as deterministic JSON
        parsed = json.loads(chrome_trace_json(_sample_spans()))
        assert len(parsed["traceEvents"]) == len(events)

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("txs_total", chain=1, status="ok").inc(5)
        registry.gauge("depth").set(2)
        histogram = registry.histogram("lat", chain=1)
        for v in (1.0, 2.0, 3.0, 4.0):
            histogram.observe(v)
        text = registry_to_prometheus(registry)
        assert "# TYPE txs_total counter" in text
        assert 'txs_total{chain="1",status="ok"} 5' in text
        assert "depth 2" in text
        assert "# TYPE lat summary" in text
        # nearest-rank convention (repro.telemetry.percentile): p50 of 1..4 is 3
        assert 'lat{chain="1",quantile="0.5"} 3' in text
        assert 'lat_count{chain="1"} 4' in text
        assert 'lat_sum{chain="1"} 10' in text


# ----------------------------------------------------------------------
# Phase analysis
# ----------------------------------------------------------------------


def _move_trace(tracer, clock, durations, success=True):
    root = tracer.start_trace("move", source_chain=1, target_chain=2)
    for phase, duration in zip(PHASES, durations):
        span = tracer.start_span(phase, root, chain=1)
        clock[0] += duration
        span.end(success=True)
    root.end(success=success)
    return root


class TestPhases:
    def test_trace_phases_and_aggregate(self):
        clock, tracer = _clocked_tracer()
        _move_trace(tracer, clock, (1.0, 10.0, 0.5, 3.0, 2.0))
        _move_trace(tracer, clock, (3.0, 20.0, 0.5, 5.0, 0.0))
        traces = trace_phases(tracer.finished_spans())
        assert len(traces) == 2
        assert traces[0].phase("confirm.wait") == 10.0
        assert traces[0].total == 16.5
        means = aggregate_phases(traces)
        assert means["move1"] == 2.0
        assert means["confirm.wait"] == 15.0

    def test_open_traces_excluded(self):
        clock, tracer = _clocked_tracer()
        tracer.start_trace("move")  # never ended
        assert trace_phases(tracer.finished_spans()) == []

    def test_breakdown_confirm_wait_is_separate(self):
        clock, tracer = _clocked_tracer()
        _move_trace(tracer, clock, (1.0, 10.0, 0.5, 3.0, 2.0))
        rows = breakdown_rows(trace_phases(tracer.finished_spans()))
        by_phase = {row[0]: row for row in rows}
        assert set(by_phase) == set(PHASES) | {"total"}
        assert by_phase["confirm.wait"][1] == 10.0
        assert by_phase["move2"][1] == 3.0

    def test_slowest_traces_order(self):
        clock, tracer = _clocked_tracer()
        _move_trace(tracer, clock, (1.0, 5.0, 0.0, 1.0, 0.0))
        _move_trace(tracer, clock, (1.0, 50.0, 0.0, 1.0, 0.0))
        traces = trace_phases(tracer.finished_spans())
        slowest = slowest_traces(traces, top=1)
        assert len(slowest) == 1
        assert slowest[0].trace_id == traces[1].trace_id


# ----------------------------------------------------------------------
# Telemetry bundle
# ----------------------------------------------------------------------


def test_bundle_defaults_disabled():
    bundle = Telemetry.disabled()
    assert not bundle.enabled_tracing
    assert Telemetry().enabled_tracing is False
    assert Telemetry.enabled().enabled_tracing is True


def test_bundle_bind_clock():
    clock = [7.0]
    bundle = Telemetry.enabled()
    bundle.bind_clock(lambda: clock[0])
    span = bundle.tracer.start_trace("move")
    assert span.start == 7.0


# ----------------------------------------------------------------------
# Histogram memory bound
# ----------------------------------------------------------------------


class TestHistogramBound:
    def test_cap_keeps_count_sum_mean_exact(self):
        from repro.telemetry.metrics import Histogram

        histogram = Histogram("latency", (), max_samples=5)
        for i in range(1, 11):  # 1..10, only 1..5 retained
            histogram.observe(float(i))
        assert histogram.count == 10
        assert histogram.sum == 55.0
        assert histogram.mean == 5.5
        assert histogram.dropped == 5
        assert histogram.samples() == (1.0, 2.0, 3.0, 4.0, 5.0)

    def test_percentiles_rank_over_retained_prefix(self):
        from repro.telemetry.metrics import Histogram

        histogram = Histogram("latency", (), max_samples=5)
        for i in range(1, 11):
            histogram.observe(float(i))
        assert histogram.percentile(1.0) == 5.0  # 6..10 were dropped

    def test_nothing_dropped_below_cap(self):
        from repro.telemetry.metrics import DEFAULT_MAX_SAMPLES

        histogram = MetricsRegistry().histogram("latency")
        assert histogram.max_samples == DEFAULT_MAX_SAMPLES
        histogram.observe(1.0)
        assert histogram.dropped == 0

    def test_cap_must_be_positive(self):
        from repro.telemetry.metrics import Histogram

        with pytest.raises(ValueError):
            Histogram("latency", (), max_samples=0)

    def test_dropped_sample_in_exposition_only_when_nonzero(self):
        from repro.telemetry.metrics import Histogram

        registry = MetricsRegistry()
        registry.histogram("latency", chain=1).observe(1.0)
        assert "latency_dropped" not in registry_to_prometheus(registry)
        # force drops through a tiny private histogram
        tiny = Histogram("tiny", (("chain", "1"),), max_samples=1)
        tiny.observe(1.0)
        tiny.observe(2.0)
        registry._instruments[("tiny", (("chain", "1"),))] = tiny
        text = registry_to_prometheus(registry)
        assert 'tiny_dropped{chain="1"} 1' in text
        assert 'tiny_count{chain="1"} 2' in text


# ----------------------------------------------------------------------
# Prometheus label escaping
# ----------------------------------------------------------------------


class TestPrometheusEscaping:
    def test_quote_backslash_newline_escaped(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", detail='say "hi"\\now\n').inc()
        text = registry_to_prometheus(registry)
        assert 'detail="say \\"hi\\"\\\\now\\n"' in text
        assert "\n\n" not in text  # the raw newline never leaks

    def test_escaped_line_round_trips(self):
        # Parse the exposition line back the way a Prometheus scraper
        # would and recover the original label value.
        original = 'tricky "value" with \\ and\nnewline'
        registry = MetricsRegistry()
        registry.counter("ops_total", detail=original).inc()
        (line,) = [
            l
            for l in registry_to_prometheus(registry).splitlines()
            if l.startswith("ops_total{")
        ]
        escaped = line[len('ops_total{detail="') : line.rindex('"')]
        unescaped = (
            escaped.replace("\\\\", "\x00")
            .replace('\\"', '"')
            .replace("\\n", "\n")
            .replace("\x00", "\\")
        )
        assert unescaped == original

    def test_plain_labels_unchanged(self):
        registry = MetricsRegistry()
        registry.counter("ops_total", chain=1, status="ok").inc(2)
        assert 'ops_total{chain="1",status="ok"} 2' in registry_to_prometheus(
            registry
        )
