"""The reference kernel: how slow is the host right now?

A shared host's speed is not its own: the machine this benchmark was
written on runs everything 1.3–1.9× slower for minutes at a time, with
no steal time reported and CPU time stretching along with wall time.
No way of timing a workload removes that, so the runner times a fixed
piece of work beside every round — this kernel, which knows nothing of
the program under test and never changes with it — and reports every
time in *reference seconds*: wall seconds divided by how much slower
than nominal the host ran the kernel during the run.

The kernel does what the program's hot paths do, in pure Python: it
chases references through a heap of small objects far larger than the
L2 cache, hashes 64-byte inputs with SHA3, and fills a dict.  A segment
is ``CHUNKS`` chunks of identical work (the random walk restarts with
every segment, so chunk *i* touches the same objects every time), which
lets the runner fold the segments of a run exactly as it folds the
rounds: chunk by chunk, fastest repeat.  Folded the same way, the
kernel keeps the same share of a slow stretch as the workloads do.
"""

from __future__ import annotations

import gc
import hashlib
import time
from typing import List

NODES = 50_000  # ~12 MB of objects and digests
CHUNKS = 30  # per segment
STEPS = 4_000  # per chunk
#: one folded chunk on the host of the recorded baseline, undisturbed
NOMINAL_CHUNK_SECONDS = 0.00675


class _Node:
    __slots__ = ("key", "value", "link", "digest")

    def __init__(self, index: int):
        self.key = index.to_bytes(4, "big")
        self.value = index
        self.link = None
        self.digest = b""


class Reference:
    """The kernel's heap and the segments timed so far."""

    def __init__(self, chunks: int = CHUNKS) -> None:
        self.chunks = chunks
        self.nodes = [_Node(index) for index in range(NODES)]
        # Out of the collector's sight, so that the program's garbage
        # collections do not pay for traversing this heap.
        gc.freeze()
        self.segments: List[List[float]] = []

    def time_segment(self) -> None:
        nodes, sha3, clock = self.nodes, hashlib.sha3_256, time.perf_counter
        padding = b"\x00" * 56
        x = 1
        chunks = []
        for _chunk in range(self.chunks):
            table = {}
            started = clock()
            for _step in range(STEPS):
                x = (x * 1103515245 + 12345) & 0x7FFFFFFF
                node = nodes[x % NODES]
                other = nodes[(x >> 7) % NODES]
                node.value += other.value & 1
                node.link = other
                node.digest = sha3(node.key + other.key + padding).digest()
                table[node.key] = node
            chunks.append(clock() - started)
        self.segments.append(chunks)

    def host_slowdown(self) -> float:
        """Folded segment time over nominal: 1.0 on the baseline host
        when nothing disturbs it."""
        folded = sum(min(column) for column in zip(*self.segments))
        return folded / (NOMINAL_CHUNK_SECONDS * self.chunks)
