"""Labeled counters, gauges and histograms — the metrics half of
:mod:`repro.telemetry`.

A :class:`MetricsRegistry` is the single place a deployment's
components register their instruments: ``registry.counter(name,
**labels)`` returns the *same* :class:`Counter` object for the same
``(name, labels)`` pair, so callers pre-bind instruments once (in
``__init__``) and the hot path is a bare attribute increment — no dict
lookup, no string formatting, no branching on whether telemetry is
enabled.  This is what replaces the ad-hoc integer counters that used
to be scattered across the chain, relay, consensus and fault layers.

Instruments are deliberately simple (this is a simulation, not an
agent): counters and gauges hold one float; histograms keep their raw
samples up to a deterministic bound (:data:`DEFAULT_MAX_SAMPLES`),
which makes exact percentiles — the quantity the paper's figures
report — trivial while keeping a long-running series' memory finite.  :func:`~repro.telemetry.exporters
.registry_to_prometheus` renders the whole registry in Prometheus text
exposition format.  :func:`percentile` is the one nearest-rank rule:
histograms rank with it, and so do the workloads' latency samples.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

LabelKey = Tuple[Tuple[str, str], ...]

#: retained-sample bound per histogram series; beyond it new
#: observations still feed ``count``/``sum``/``mean`` but are not kept
DEFAULT_MAX_SAMPLES = 100_000


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) of ``samples`` by nearest-rank."""
    if not samples:
        raise ValueError("no samples")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be within [0, 1]")
    ordered = sorted(samples)
    rank = min(int(q * len(ordered)), len(ordered) - 1)
    return ordered[rank]


def _label_key(labels: Dict[str, object]) -> LabelKey:
    """Canonical (sorted, stringified) identity of a label set."""
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that goes up and down (queue depths, active counts)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelKey):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` to the gauge."""
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        """Subtract ``amount`` from the gauge."""
        self.value -= amount


class Histogram:
    """A distribution of observations with exact percentiles — up to a
    deterministic memory bound.

    The first ``max_samples`` observations are retained raw, so
    percentiles over them are exact (the quantity the paper's figures
    report).  Observations beyond the bound still update ``count``,
    ``sum`` and ``mean`` exactly, but the samples themselves are
    dropped (counted in ``dropped``): percentiles then rank over the
    retained prefix only, by the same nearest-rank rule.  The bound is
    a fixed constant, not a sampling rate, so two identically seeded
    runs always retain the identical prefix.  :meth:`percentile` sorts
    lazily and caches until the next retained observation.
    """

    __slots__ = ("name", "labels", "max_samples", "dropped", "_samples",
                 "_sorted", "_count", "sum")

    def __init__(
        self, name: str, labels: LabelKey, max_samples: int = DEFAULT_MAX_SAMPLES
    ):
        if max_samples <= 0:
            raise ValueError("max_samples must be positive")
        self.name = name
        self.labels = labels
        self.max_samples = max_samples
        self.dropped = 0
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None
        self._count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        self._count += 1
        self.sum += value
        if len(self._samples) < self.max_samples:
            self._samples.append(value)
            self._sorted = None
        else:
            self.dropped += 1

    @property
    def count(self) -> int:
        """Every observation ever made (retained or dropped)."""
        return self._count

    @property
    def mean(self) -> float:
        return self.sum / self._count if self._count else 0.0

    def samples(self) -> Tuple[float, ...]:
        """The retained observations, in observation order."""
        return tuple(self._samples)

    def percentile(self, q: float) -> float:
        """The ``q``-quantile (0..1) by nearest rank over the retained
        samples (exact while nothing has been dropped).

        Raises :class:`ValueError` when the histogram is empty or
        ``q`` falls outside ``[0, 1]``.
        """
        if not self._samples:
            raise ValueError(f"histogram {self.name} has no samples")
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return percentile(self._sorted, q)


class MetricsRegistry:
    """Get-or-create home for every instrument of one deployment.

    One registry is shared by all chains, relays, engines and fault
    machinery of an experiment (see :class:`~repro.telemetry.Telemetry`),
    so a single export shows the whole system.  Within one name, every
    label set is an independent time series, exactly as in Prometheus;
    requesting an existing ``(name, labels)`` pair with a *different*
    instrument kind raises, which catches name collisions early.
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelKey], object] = {}

    def _get(self, cls, name: str, labels: Dict[str, object]):
        key = (name, _label_key(labels))
        instrument = self._instruments.get(key)
        if instrument is None:
            instrument = cls(name, key[1])
            self._instruments[key] = instrument
        elif not isinstance(instrument, cls):
            raise TypeError(
                f"{name}{dict(key[1])} is a {type(instrument).__name__}, "
                f"not a {cls.__name__}"
            )
        return instrument

    def counter(self, name: str, **labels: object) -> Counter:
        """The counter for ``(name, labels)`` (created on first use)."""
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels: object) -> Gauge:
        """The gauge for ``(name, labels)`` (created on first use)."""
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels: object) -> Histogram:
        """The histogram for ``(name, labels)`` (created on first use)."""
        return self._get(Histogram, name, labels)

    def instruments(self) -> Iterator[object]:
        """Every registered instrument, in deterministic (name, label)
        order."""
        for key in sorted(self._instruments):
            yield self._instruments[key]

    def value(self, name: str, **labels: object) -> float:
        """Convenience read of a counter/gauge value (0.0 if absent)."""
        instrument = self._instruments.get((name, _label_key(labels)))
        if instrument is None:
            return 0.0
        return getattr(instrument, "value", 0.0)

    def total(self, name: str) -> float:
        """Sum of a counter's value across every label set."""
        return sum(
            instrument.value
            for (iname, _), instrument in self._instruments.items()
            if iname == name and isinstance(instrument, Counter)
        )

    def totals(self, names: Iterable[str]) -> Dict[str, float]:
        """Counter totals for several names in one registry pass
        (absent names read 0.0) — what periodic samplers such as the
        flight recorder call instead of N :meth:`total` scans."""
        wanted: Dict[str, float] = {name: 0.0 for name in names}
        for (iname, _), instrument in self._instruments.items():
            if iname in wanted and isinstance(instrument, Counter):
                wanted[iname] += instrument.value
        return wanted
