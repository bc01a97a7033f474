"""Simulated-clock-aware tracing: spans, events and trace propagation.

One **trace** covers one logical transaction — for the Move protocol
that is a *whole cross-chain move*, spanning both chains: mempool
admission at the source, Move1 inclusion, the ``p``-block confirmation
wait, proof construction, the header-relay hop, light-client acceptance
at the target, Move2 verification (``VS`` / ``VP`` / nonce replay check
as individual events), storage replay and ``moveFinish``.

Design constraints, in order:

1. **Determinism.**  Trace and span ids are sequential integers per
   tracer, timestamps come from the simulated clock, and nothing
   derived from process-global state (tx ids, object ids, wall time)
   enters a span by default — two runs with the same seed export
   byte-identical JSONL (the chaos determinism test enforces this).
2. **Near-zero cost when disabled.**  A tracer over a
   :class:`NullSink` returns the shared :data:`NULL_SPAN` from every
   entry point after a single attribute check; all span methods on it
   are no-ops.  The overhead benchmark holds this to within 5 % of an
   untraced baseline.
3. **Cross-chain propagation without plumbing.**  The trace context
   rides in ``tx.meta["telemetry"]`` (unsigned, local bookkeeping), so
   a Move2 submitted on the *target* chain joins the trace the *source*
   chain started.  Within a chain, the executor pushes the transaction
   span onto a module-level stack; deep code (``apply_move2``'s checks)
   emits events via :func:`current_span` with no signature changes.

Headers are not per-trace, so relay delivery and light-client
acceptance are attributed through **watches**: the bridge registers
"this trace is waiting for source header ≥ h at observer chain j", and
the relay/light-client hooks convert the matching delivery into events
on that trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: meta key under which the trace context travels inside ``tx.meta``
META_KEY = "telemetry"


@dataclass
class SpanEvent:
    """A point-in-time annotation inside a span."""

    name: str
    time: float
    attrs: Dict[str, Any] = field(default_factory=dict)


class Span:
    """One timed operation within a trace."""

    __slots__ = (
        "tracer",
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end_time",
        "attrs",
        "events",
    )

    def __init__(
        self,
        tracer: "Tracer",
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        attrs: Dict[str, Any],
    ):
        self.tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end_time: Optional[float] = None
        self.attrs = attrs
        self.events: List[SpanEvent] = []

    # -- recording ----------------------------------------------------

    def event(self, name: str, **attrs: Any) -> None:
        """Record a point event at the current simulated time."""
        self.events.append(SpanEvent(name=name, time=self.tracer.now(), attrs=attrs))

    def end(self, **attrs: Any) -> None:
        """Close the span at the current simulated time (idempotent)."""
        if self.end_time is not None:
            return
        if attrs:
            self.attrs.update(attrs)
        self.end_time = self.tracer.now()
        self.tracer._on_span_end(self)

    # -- reading ------------------------------------------------------

    @property
    def ended(self) -> bool:
        return self.end_time is not None

    @property
    def duration(self) -> float:
        """Simulated seconds from start to end (0.0 while open)."""
        if self.end_time is None:
            return 0.0
        return self.end_time - self.start

    def context(self) -> Tuple[int, int]:
        """The ``(trace_id, span_id)`` pair to stash in ``tx.meta``."""
        return (self.trace_id, self.span_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"..{self.end_time}" if self.end_time is not None else " (open)"
        return f"<Span {self.trace_id}/{self.span_id} {self.name!r} {self.start}{state}>"


class _NullSpan:
    """Shared no-op span returned by disabled tracers."""

    __slots__ = ()

    trace_id = -1
    span_id = -1
    parent_id = None
    name = ""
    start = 0.0
    end_time = 0.0
    attrs: Dict[str, Any] = {}
    events: List[SpanEvent] = []
    ended = True
    duration = 0.0

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def end(self, **attrs: Any) -> None:
        pass

    def context(self) -> None:
        return None

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()

#: module-level active-span stack (the simulator is single-threaded, so
#: a plain list is exact); the executor pushes each transaction's span
#: so deep Move-protocol code can annotate it without plumbing
_ACTIVE: List[Span] = []


def current_span():
    """The innermost active span, or :data:`NULL_SPAN`."""
    return _ACTIVE[-1] if _ACTIVE else NULL_SPAN


def push_span(span: Span) -> None:
    """Make ``span`` the target of :func:`current_span`."""
    _ACTIVE.append(span)


def pop_span() -> None:
    """Undo the matching :func:`push_span`."""
    if _ACTIVE:
        _ACTIVE.pop()


class NullSink:
    """Discards everything; makes a tracer near-zero-cost."""

    enabled = False

    def add(self, span: Span) -> None:  # pragma: no cover - never called
        """Discard the span."""

    def spans(self) -> List[Span]:
        """Always empty."""
        return []


class MemorySink:
    """Keeps every span in memory for export and analysis."""

    enabled = True

    def __init__(self) -> None:
        self._spans: List[Span] = []

    def add(self, span: Span) -> None:
        """Retain a newly created span."""
        self._spans.append(span)

    def spans(self) -> List[Span]:
        """All spans, in creation order (open spans included)."""
        return list(self._spans)


@dataclass
class _HeaderWatch:
    """One trace waiting for a source header to reach an observer."""

    span: Span
    source_chain: int
    height: int
    observer: Optional[int]  # None: any observer
    relayed: bool = False
    accepted: bool = False


class Tracer:
    """Creates spans against a (simulated) clock and a sink."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        sink: Optional[object] = None,
    ):
        self._clock = clock or (lambda: 0.0)
        self.sink = sink if sink is not None else NullSink()
        self.enabled = bool(getattr(self.sink, "enabled", True))
        self._next_trace = 0
        self._next_span = 0
        self._by_id: Dict[int, Span] = {}
        self._active_roots: Dict[int, Span] = {}  # trace_id -> root span
        self._watches: List[_HeaderWatch] = []

    # -- clock --------------------------------------------------------

    def now(self) -> float:
        """Current (simulated) time."""
        return self._clock()

    def bind_clock(self, clock: Callable[[], float]) -> None:
        """Late-bind the clock (experiments create the simulator after
        the telemetry bundle)."""
        self._clock = clock

    # -- span creation ------------------------------------------------

    def _make_span(
        self, name: str, trace_id: int, parent_id: Optional[int], attrs: Dict[str, Any]
    ) -> Span:
        self._next_span += 1
        span = Span(
            tracer=self,
            trace_id=trace_id,
            span_id=self._next_span,
            parent_id=parent_id,
            name=name,
            start=self.now(),
            attrs=attrs,
        )
        self._by_id[span.span_id] = span
        self.sink.add(span)
        return span

    def start_trace(self, name: str, **attrs: Any):
        """Open a new trace; returns its root span."""
        if not self.enabled:
            return NULL_SPAN
        self._next_trace += 1
        span = self._make_span(name, self._next_trace, None, attrs)
        self._active_roots[span.trace_id] = span
        return span

    def start_span(self, name: str, parent, **attrs: Any):
        """Open a child span under ``parent`` (a :class:`Span`)."""
        if not self.enabled or parent is NULL_SPAN or parent is None:
            return NULL_SPAN
        return self._make_span(name, parent.trace_id, parent.span_id, attrs)

    def span_from_meta(self, name: str, meta: Dict[str, Any], **attrs: Any):
        """Open a span whose parent context rides in ``tx.meta``."""
        if not self.enabled:
            return NULL_SPAN
        context = meta.get(META_KEY)
        if context is None:
            return NULL_SPAN
        trace_id, parent_id = context
        return self._make_span(name, trace_id, parent_id, attrs)

    def meta_event(self, meta: Dict[str, Any], name: str, **attrs: Any) -> None:
        """Record an event on the span a ``tx.meta`` context points at."""
        if not self.enabled:
            return
        context = meta.get(META_KEY)
        if context is None:
            return
        span = self._by_id.get(context[1])
        if span is not None:
            span.event(name, **attrs)

    @staticmethod
    def inject(span, meta: Dict[str, Any]) -> None:
        """Stamp ``span``'s context into a ``tx.meta`` dict (no-op for
        :data:`NULL_SPAN`)."""
        context = span.context()
        if context is not None:
            meta[META_KEY] = context

    def _on_span_end(self, span: Span) -> None:
        if span.parent_id is None:
            self._active_roots.pop(span.trace_id, None)
            self._watches = [w for w in self._watches if w.span.trace_id != span.trace_id]

    # -- header watches (relay / light-client attribution) ------------

    def watch_header(self, span, source_chain: int, height: int,
                     observer: Optional[int] = None) -> None:
        """Attribute the delivery/acceptance of source header ``>=
        height`` at ``observer`` to ``span``'s trace."""
        if not self.enabled or span is NULL_SPAN:
            return
        self._watches.append(
            _HeaderWatch(span=span, source_chain=source_chain,
                         height=height, observer=observer)
        )

    def header_relayed(self, source_chain: int, target_chain: int, height: int) -> None:
        """Relay hook: a header left the relay toward ``target_chain``."""
        if not self._watches:
            return
        for watch in self._watches:
            if (
                not watch.relayed
                and watch.source_chain == source_chain
                and height >= watch.height
                and (watch.observer is None or watch.observer == target_chain)
            ):
                watch.relayed = True
                watch.span.event(
                    "relay.forward",
                    source_chain=source_chain,
                    target_chain=target_chain,
                    height=height,
                )

    def header_accepted(self, observer_chain: int, source_chain: int, height: int) -> None:
        """Light-client hook: an observer ingested a source header."""
        if not self._watches:
            return
        done: List[_HeaderWatch] = []
        for watch in self._watches:
            if (
                not watch.accepted
                and watch.source_chain == source_chain
                and height >= watch.height
                and (watch.observer is None or watch.observer == observer_chain)
            ):
                watch.accepted = True
                watch.span.event(
                    "lightclient.accept",
                    observer_chain=observer_chain,
                    source_chain=source_chain,
                    height=height,
                )
            if watch.accepted and watch.relayed:
                done.append(watch)
        for watch in done:
            self._watches.remove(watch)

    def has_watches(self) -> bool:
        """Are any traces waiting on header deliveries?"""
        return bool(self._watches)

    # -- fault attribution --------------------------------------------

    def fault_event(self, kind: str, chain: int = 0, **attrs: Any) -> None:
        """Tag every affected active trace with an injected fault.

        ``chain`` scopes the fault: traces whose root span touches that
        chain (``chain`` / ``source_chain`` / ``target_chain`` attrs)
        are tagged; ``chain=0`` (network-wide faults) tags every active
        trace.
        """
        if not self.enabled or not self._active_roots:
            return
        for root in list(self._active_roots.values()):
            if chain:
                touches = {
                    root.attrs.get("chain"),
                    root.attrs.get("source_chain"),
                    root.attrs.get("target_chain"),
                }
                if chain not in touches:
                    continue
            root.event("fault.injected", kind=kind, chain=chain, **attrs)

    # -- reading ------------------------------------------------------

    def spans(self) -> List[Span]:
        """Every span the sink retained."""
        return self.sink.spans()

    def finished_spans(self) -> List[Span]:
        """Only the spans that have ended."""
        return [s for s in self.sink.spans() if s.ended]
