"""The dependency DAG of Fig. 4.

Vertices are trace operations; an operation depends on the most recent
earlier operation touching each of its objects (cats).  Leaves — ops
with no unresolved dependencies — can execute in parallel; completing
an op may free its successors, just as Tx4 becomes executable once Tx1
and Tx3 finish in the paper's example.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set

from repro.errors import StateError
from repro.traces.events import TraceOp


class DependencyDAG:
    """Tracks readiness of trace operations during replay."""

    def __init__(self, ops: Sequence[TraceOp]):
        self.ops: Dict[int, TraceOp] = {op.op_id: op for op in ops}
        self._blockers: Dict[int, Set[int]] = {}
        self._dependents: Dict[int, List[int]] = {}
        self._completed: Set[int] = set()
        self._ready: List[int] = []
        last_toucher: Dict[int, int] = {}
        for op in ops:
            deps = set()
            for obj in op.objects:
                if obj in last_toucher:
                    deps.add(last_toucher[obj])
            for obj in op.objects:
                last_toucher[obj] = op.op_id
            self._blockers[op.op_id] = deps
            for dep in deps:
                self._dependents.setdefault(dep, []).append(op.op_id)
            if not deps:
                self._ready.append(op.op_id)

    # ------------------------------------------------------------------

    def take_ready(self) -> List[int]:
        """Drain the currently-ready op ids (in trace order)."""
        out, self._ready = self._ready, []
        return out

    def ready_count(self) -> int:
        """How many ops are ready right now."""
        return len(self._ready)

    def complete(self, op_id: int) -> List[int]:
        """Mark an op done; returns newly freed op ids."""
        if op_id in self._completed:
            raise StateError(f"op {op_id} completed twice")
        if self._blockers.get(op_id):
            raise StateError(f"op {op_id} completed with open dependencies")
        self._completed.add(op_id)
        freed: List[int] = []
        for dependent in self._dependents.get(op_id, ()):
            blockers = self._blockers[dependent]
            blockers.discard(op_id)
            if not blockers:
                freed.append(dependent)
        self._ready.extend(freed)
        return freed

    @property
    def done(self) -> bool:
        return len(self._completed) == len(self.ops)

    def depth(self) -> int:
        """Longest dependency chain — bounds replay parallelism.

        Computed iteratively in op-id order, which is topological
        because dependencies always precede dependents in the trace.
        """
        initial: Dict[int, Set[int]] = {op_id: set() for op_id in self.ops}
        for dep, dependents in self._dependents.items():
            for dependent in dependents:
                initial[dependent].add(dep)
        depth: Dict[int, int] = {}
        for op_id in sorted(self.ops):
            depth[op_id] = 1 + max((depth[b] for b in initial[op_id]), default=0)
        return max(depth.values(), default=0)
