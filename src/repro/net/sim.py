"""Deterministic discrete-event simulator.

All experiments run against this loop: block intervals of 5 or 15
seconds cost no wall-clock time, and every run is reproducible from its
seed.  Events are ordered by ``(time, sequence_number)`` so same-time
events fire in scheduling order.

An event is a plain list ``[time, seq, callback, args]`` on a binary
heap, so the heap orders events with the C list comparison; ``seq`` is
unique, which means a comparison is always decided by the first two
slots and never reaches the callback.
"""

from __future__ import annotations

import random
from heapq import heappop, heappush
from math import inf
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError


class EventHandle:
    """Handle returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.every`; allows cancellation."""

    __slots__ = ("_event",)

    def __init__(self, event: list):
        self._event = event

    def cancel(self) -> None:
        """Prevent the event from firing (no-op if it already fired); a
        loop from :meth:`Simulator.every` stops, also if cancelled from
        inside its own callback."""
        self._event[2] = None

    @property
    def time(self) -> float:
        return self._event[0]


class Simulator:
    """A single-threaded simulated clock and event queue.

    The random number generator is part of the simulator so that every
    stochastic choice in an experiment (latency jitter, PoW mining
    times, workload decisions) derives from one seed.
    """

    def __init__(self, seed: int = 0):
        self._now = 0.0
        self._seq = 0
        self._queue: List[list] = []
        self.rng = random.Random(seed)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def schedule(
        self, delay: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` ``delay`` simulated seconds from now.

        The event carries its arguments, so a caller binds them here
        instead of allocating a closure per event.  ``delay`` must be a
        finite number ``>= 0`` (NaN would fire out of order, infinity
        never).
        """
        if not 0 <= delay < inf:
            raise SimulationError(f"delay must be finite and >= 0, got {delay}")
        self._seq += 1
        event = [self._now + delay, self._seq, callback, args]
        heappush(self._queue, event)
        return EventHandle(event)

    def schedule_at(
        self, time: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` at an absolute simulated time."""
        return self.schedule(time - self._now, callback, *args)

    def every(
        self, interval: float, callback: Callable[..., None], *args: Any
    ) -> EventHandle:
        """Run ``callback(*args)`` every ``interval`` simulated seconds,
        the first time one interval from now, until the returned
        handle is cancelled.  ``interval`` must be finite and ``> 0``
        (zero would spin forever at one instant)."""
        if not 0 < interval < inf:
            raise SimulationError(f"interval must be finite and > 0, got {interval}")
        handle = self.schedule(interval, self._repeat)
        handle._event[3] = (handle._event, interval, callback, args)
        return handle

    def _repeat(self, event: list, interval: float, callback, args: tuple) -> None:
        callback(*args)
        # One loop is one event, re-queued with a fresh sequence number
        # after the callback returns, unless the callback cancelled it.
        if event[2] is not None:
            self._seq += 1
            event[0] = self._now + interval
            event[1] = self._seq
            heappush(self._queue, event)

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Process events until the queue drains, ``until`` is reached,
        or ``max_events`` have fired.  Returns the number of events
        processed.

        When stopping at ``until``, the clock is advanced exactly to
        ``until`` (pending later events stay queued and can be resumed
        by a further ``run`` call).
        """
        queue = self._queue
        processed = 0
        while queue:
            if max_events is not None and processed >= max_events:
                break
            if until is not None and queue[0][0] > until:
                self._now = until
                return processed
            time, _seq, callback, args = heappop(queue)
            if callback is None:
                continue  # cancelled
            self._now = time
            callback(*args)
            processed += 1
        if until is not None and self._now < until:
            self._now = until
        return processed

    def pending(self) -> int:
        """Number of queued (possibly cancelled) events."""
        return len(self._queue)
