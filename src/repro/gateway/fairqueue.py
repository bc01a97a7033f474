"""The classed, weighted-fair admission queue (one per chain per replica).

Replaces the PR 5 flat FIFO deque with a two-level structure:

* **priority classes** (:class:`~repro.gateway.classes.PriorityClass`)
  flush in strict priority order — every queued ``MOVE`` leaves before
  any ``VIEW``, every ``VIEW`` before any ``BULK`` — and shed in the
  reverse order: an arrival that finds the queue at bound evicts the
  most recent entry of the *lowest* backlogged class strictly below its
  own, so a burst of bulk transfers can never crowd out a move;
* **deficit round-robin across clients** within each class: each
  backlogged client owns a FIFO lane and the flusher serves lanes in
  arrival-ring order, up to ``quantum`` entries per turn, so one
  aggressive client drains at the same per-round rate as everyone else
  (starvation-freedom is property-tested in
  ``tests/property/test_fleet_properties.py``).

Everything is deterministic: no RNG, ties broken by queue length then
client id, partial turns resume exactly where they stopped.  The queue
itself does no metrics or handle bookkeeping — it returns the evicted
victim to the caller, which is what lets the gateway attribute
``gateway_queue_shed_total`` to the entry that was actually dropped
rather than to the enqueuer.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.gateway.classes import FLUSH_ORDER, SHED_ORDER, PriorityClass


class QueueEntry:
    """One admitted-but-unflushed request."""

    __slots__ = ("tx", "handle", "cls", "client")

    def __init__(self, tx: object, handle: object, cls: PriorityClass, client: str):
        self.tx = tx
        self.handle = handle
        self.cls = cls
        self.client = client


@dataclass(frozen=True)
class PushResult:
    """Outcome of one :meth:`ClassedFairQueue.push`."""

    admitted: bool
    #: the entry evicted to make room (class-aware shed); None when the
    #: push fit under the bound or was itself refused
    victim: Optional[QueueEntry] = None


# The two outcomes that carry no victim are shared, not allocated per push.
_ADMITTED = PushResult(admitted=True)
_REFUSED = PushResult(admitted=False)


class ClassedFairQueue:
    """Bounded, classed, per-client-fair admission queue."""

    def __init__(self, bound: int, quantum: int = 8):
        self.bound = bound
        self.quantum = quantum
        #: class -> client -> FIFO lane
        self._lanes: Dict[PriorityClass, Dict[str, Deque[QueueEntry]]] = {
            cls: {} for cls in FLUSH_ORDER
        }
        #: class -> round-robin ring of backlogged clients
        self._rings: Dict[PriorityClass, Deque[str]] = {
            cls: deque() for cls in FLUSH_ORDER
        }
        self.depth = 0
        self.peak_depth = 0
        self.class_depth: Dict[PriorityClass, int] = {c: 0 for c in FLUSH_ORDER}
        #: class -> (client, remaining quantum) when a pop budget cut a
        #: turn short — the deficit the next pop owes that client
        self._carry: Dict[PriorityClass, Optional[Tuple[str, int]]] = {
            c: None for c in FLUSH_ORDER
        }

    def __len__(self) -> int:
        return self.depth

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def push(self, entry: QueueEntry) -> PushResult:
        """Admit ``entry`` under the bound.

        At the bound, the shed policy is class-aware: the most recent
        entry of the lowest backlogged class *strictly below*
        ``entry.cls`` is evicted and returned as the victim (its handle
        is still live — the caller fails it with the typed
        :class:`~repro.errors.ShedByClass` and charges the shed to the
        victim's class/client).  If no lower class is backlogged the
        push is refused and the caller sheds the newcomer instead —
        same-class work is never evicted, so admission within a class
        stays FIFO-honest.
        """
        victim = None
        if self.depth >= self.bound:
            victim = self._evict_below(entry.cls)
            if victim is None:
                return _REFUSED
        cls, client = entry.cls, entry.client
        lanes = self._lanes[cls]
        lane = lanes.get(client)
        if lane is None:
            lane = lanes[client] = deque()
        if not lane:
            self._rings[cls].append(client)
        lane.append(entry)
        depth = self.depth = self.depth + 1
        if depth > self.peak_depth:
            self.peak_depth = depth
        self.class_depth[cls] += 1
        if victim is None:
            return _ADMITTED
        return PushResult(admitted=True, victim=victim)

    def _evict_below(self, cls: PriorityClass) -> Optional[QueueEntry]:
        """Drop and return the most recent entry of the lowest
        backlogged class strictly below ``cls`` (None if there is
        none).  Within the class the victim comes off the *tail* of the
        longest lane — the client hogging the most slots gives one
        back, and its oldest (fairest) work survives."""
        for victim_cls in SHED_ORDER:
            if victim_cls <= cls:
                return None
            if self.class_depth[victim_cls] == 0:
                continue
            lanes = self._lanes[victim_cls]
            client = max(lanes, key=lambda c: (len(lanes[c]), c))
            lane = lanes[client]
            victim = lane.pop()
            if not lane:
                del lanes[client]
                self._rings[victim_cls].remove(client)
            self.depth -= 1
            self.class_depth[victim_cls] -= 1
            return victim
        return None

    # ------------------------------------------------------------------
    # Draining (the flush side)
    # ------------------------------------------------------------------

    def pop(self, budget: int) -> List[QueueEntry]:
        """Remove up to ``budget`` entries in flush order.

        Strict priority across classes; deficit round-robin across
        clients within a class (``quantum`` entries per client per
        turn).  A turn cut short by the budget resumes at the same
        client next call, so fairness holds across micro-batches, not
        just within one.
        """
        out: List[QueueEntry] = []
        for cls in FLUSH_ORDER:
            ring = self._rings[cls]
            lanes = self._lanes[cls]
            carry = self._carry[cls]
            self._carry[cls] = None
            while ring and len(out) < budget:
                client = ring.popleft()
                lane = lanes[client]
                turn = self.quantum
                if carry is not None:
                    # An earlier pop's budget cut this client's turn
                    # short; it is owed only the rest of that quantum,
                    # not a fresh one.
                    if carry[0] == client:
                        turn = carry[1]
                    carry = None
                take = min(turn, len(lane), budget - len(out))
                for _ in range(take):
                    out.append(lane.popleft())
                if lane:
                    if len(out) >= budget and take < turn:
                        # Budget cut the turn short: keep this client at
                        # the head so its remaining quantum comes first.
                        ring.appendleft(client)
                        self._carry[cls] = (client, turn - take)
                    else:
                        ring.append(client)
                else:
                    del lanes[client]
            if len(out) >= budget:
                break
        self.depth -= len(out)
        for entry in out:
            self.class_depth[entry.cls] -= 1
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def depths_by_class(self) -> Dict[str, int]:
        """Current depth per class label (stable key order)."""
        return {cls.label: self.class_depth[cls] for cls in FLUSH_ORDER}
