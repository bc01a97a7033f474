"""Telemetry overhead: disabled tracing must be (nearly) free.

Runs the same fault-free SCoin chaos workload three ways:

* **baseline** — default telemetry (the implicit disabled bundle);
* **null** — an explicitly constructed ``NullSink`` tracer, i.e. the
  "telemetry wired but off" configuration every instrumented call site
  pays for;
* **enabled** — a ``MemorySink`` tracer recording every span, event,
  watch and metric;
* **monitor** — baseline telemetry plus the full health plane
  (``health=True``): probes, SLO evaluation and flight recording every
  5 simulated seconds.

Gates (the CI ``telemetry`` job runs this in smoke mode):

* the null configuration stays within **5 %** of baseline — the
  single-``enabled``-check fast path really is near-zero-cost;
* full tracing stays within **15 %** of baseline on the SCoin workload;
* the health monitor stays within **5 %** of baseline — read-only
  sampling on a 5 s cadence must never tax the workload it watches.

Wall-clock comparisons use best-of-N (minimum), the standard way to
suppress scheduler noise: the minimum is the run least disturbed by the
machine, and any real per-call overhead shows up in every repetition.
"""

from __future__ import annotations

import gc
import time

from bench_common import emit, format_table, full_scale, once

from repro.faults.chaos import run_chaos
from repro.faults.plan import FaultPlan
from repro.telemetry import MemorySink, NullSink, Telemetry, Tracer

SEED = 5


def _duration() -> float:
    # Long enough that the workload dominates setup even in smoke mode.
    return 3600.0 if full_scale() else 1200.0


def _repeats() -> int:
    # Shared runners are noisy; the minimum over many repetitions is
    # what converges on the true per-configuration cost.
    return 10 if full_scale() else 8


def _one_run(telemetry, health=False) -> float:
    duration = _duration()
    plan = FaultPlan(seed=SEED, duration=duration, events=())
    gc.collect()  # earlier runs' garbage must not bill this one
    start = time.perf_counter()
    report = run_chaos(
        SEED,
        duration=duration,
        workload="scoin",
        plan=plan,
        telemetry=telemetry,
        health=health,
    )
    elapsed = time.perf_counter() - start
    assert report.moves_completed > 0, "workload must actually move contracts"
    return elapsed


CONFIGS = (
    ("baseline", lambda: None, False),
    ("null", lambda: Telemetry(tracer=Tracer(sink=NullSink())), False),
    ("enabled", lambda: Telemetry(tracer=Tracer(sink=MemorySink())), False),
    ("monitor", lambda: None, True),
)


def _measure():
    # Interleave configurations round-robin so drift over the process's
    # lifetime (cache warmup, allocator growth) hits all three equally.
    best = {name: float("inf") for name, _, _ in CONFIGS}
    _one_run(None)  # warm-up, untimed
    for _ in range(_repeats()):
        for name, make_telemetry, health in CONFIGS:
            best[name] = min(best[name], _one_run(make_telemetry(), health))
    return best


def test_telemetry_overhead(benchmark):
    results = once(benchmark, _measure)
    base = results["baseline"]

    rows = [
        [config, round(seconds, 3), f"{seconds / base * 100:.1f}%"]
        for config, seconds in results.items()
    ]
    emit(
        "overhead_telemetry",
        format_table(["configuration", "best of N (s)", "vs baseline"], rows),
    )

    # A 20 ms absolute floor keeps sub-second smoke runs from failing on
    # scheduler noise alone; at full scale the ratio dominates.
    assert results["null"] <= max(base * 1.05, base + 0.02), (
        f"NullSink run {results['null']:.3f}s exceeds 5% over "
        f"baseline {base:.3f}s"
    )
    assert results["enabled"] <= max(base * 1.15, base + 0.02), (
        f"enabled-tracing run {results['enabled']:.3f}s exceeds 15% over "
        f"baseline {base:.3f}s"
    )
    assert results["monitor"] <= max(base * 1.05, base + 0.02), (
        f"health-monitored run {results['monitor']:.3f}s exceeds 5% over "
        f"baseline {base:.3f}s"
    )
