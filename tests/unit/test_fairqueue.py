"""Unit tests for the classed, weighted-fair admission queue.

The invariants under test are the tentpole's core guarantees:

* strict-priority flush: every queued MOVE leaves before any VIEW,
  every VIEW before any BULK;
* class-aware shed: an arrival at the bound evicts the most recent
  entry of the lowest backlogged class strictly below its own, never a
  peer or better class (so within a class admission stays FIFO-honest);
* deficit round-robin across clients: lanes are served ``quantum`` at a
  time in ring order, per-client FIFO order preserved, partial turns
  resuming where they stopped.
"""

import pytest

from repro.gateway.classes import PriorityClass
from repro.gateway.fairqueue import ClassedFairQueue, QueueEntry
from repro.errors import ConfigError


def entry(cls, client="c", tag=None):
    return QueueEntry(tx=tag, handle=None, cls=cls, client=client)


def drain(queue, budget=10**9):
    return [(e.cls, e.client, e.tx) for e in queue.pop(budget)]


# ----------------------------------------------------------------------
# Classification and coercion
# ----------------------------------------------------------------------


def test_priority_class_order_and_labels():
    assert PriorityClass.MOVE < PriorityClass.VIEW < PriorityClass.BULK
    assert [c.label for c in PriorityClass] == ["move", "view", "bulk"]


@pytest.mark.parametrize(
    "value, expected",
    [
        ("move", PriorityClass.MOVE),
        ("VIEW", PriorityClass.VIEW),
        (PriorityClass.BULK, PriorityClass.BULK),
        (0, PriorityClass.MOVE),
        (2, PriorityClass.BULK),
    ],
)
def test_coerce_accepts_members_labels_and_ints(value, expected):
    assert PriorityClass.coerce(value) is expected


@pytest.mark.parametrize("bad", ["urgent", 3, -1, 1.5, None])
def test_coerce_rejects_unknown_priorities_naming_the_field(bad):
    with pytest.raises(ConfigError, match="priority"):
        PriorityClass.coerce(bad)


# ----------------------------------------------------------------------
# Strict-priority flush
# ----------------------------------------------------------------------


def test_flush_order_is_strict_priority_across_classes():
    queue = ClassedFairQueue(bound=10)
    queue.push(entry(PriorityClass.BULK, tag=1))
    queue.push(entry(PriorityClass.MOVE, tag=2))
    queue.push(entry(PriorityClass.VIEW, tag=3))
    queue.push(entry(PriorityClass.MOVE, tag=4))
    order = [tag for _, _, tag in drain(queue)]
    assert order == [2, 4, 3, 1]
    assert queue.depth == 0


def test_per_client_fifo_within_a_class():
    queue = ClassedFairQueue(bound=10, quantum=8)
    for tag in range(4):
        queue.push(entry(PriorityClass.BULK, client="a", tag=tag))
    drained = [tag for _, _, tag in drain(queue)]
    assert drained == [0, 1, 2, 3]


# ----------------------------------------------------------------------
# Deficit round-robin across clients
# ----------------------------------------------------------------------


def test_drr_interleaves_clients_by_quantum():
    queue = ClassedFairQueue(bound=100, quantum=2)
    for tag in range(6):
        queue.push(entry(PriorityClass.BULK, client="hog", tag=f"h{tag}"))
    for tag in range(2):
        queue.push(entry(PriorityClass.BULK, client="meek", tag=f"m{tag}"))
    drained = [tag for _, _, tag in drain(queue)]
    # hog gets 2, then meek gets its 2, then hog finishes.
    assert drained == ["h0", "h1", "m0", "m1", "h2", "h3", "h4", "h5"]


def test_drr_partial_turn_resumes_same_client():
    queue = ClassedFairQueue(bound=100, quantum=4)
    for tag in range(6):
        queue.push(entry(PriorityClass.BULK, client="a", tag=f"a{tag}"))
    for tag in range(2):
        queue.push(entry(PriorityClass.BULK, client="b", tag=f"b{tag}"))
    # Budget 2 cuts a's quantum mid-turn: its remaining quantum must
    # come first next pop, not forfeit to b.
    first = [tag for _, _, tag in drain(queue, budget=2)]
    second = [tag for _, _, tag in drain(queue, budget=4)]
    assert first == ["a0", "a1"]
    assert second == ["a2", "a3", "b0", "b1"]


def test_drr_full_quantum_rotates_to_back_of_ring():
    queue = ClassedFairQueue(bound=100, quantum=2)
    for tag in range(4):
        queue.push(entry(PriorityClass.BULK, client="a", tag=f"a{tag}"))
    queue.push(entry(PriorityClass.BULK, client="b", tag="b0"))
    # a's full quantum is exhausted exactly at the budget boundary: the
    # turn is complete, so b is served before a's remainder.
    first = [tag for _, _, tag in drain(queue, budget=2)]
    second = [tag for _, _, tag in drain(queue, budget=3)]
    assert first == ["a0", "a1"]
    assert second == ["b0", "a2", "a3"]


# ----------------------------------------------------------------------
# Class-aware shedding
# ----------------------------------------------------------------------


def test_push_at_bound_evicts_lowest_class_below():
    queue = ClassedFairQueue(bound=2)
    queue.push(entry(PriorityClass.VIEW, tag="v"))
    queue.push(entry(PriorityClass.BULK, tag="b"))
    result = queue.push(entry(PriorityClass.MOVE, tag="m"))
    assert result.admitted and result.victim.tx == "b"
    assert queue.depth == 2
    assert [tag for _, _, tag in drain(queue)] == ["m", "v"]


def test_push_refused_when_no_lower_class_backlogged():
    queue = ClassedFairQueue(bound=2)
    queue.push(entry(PriorityClass.MOVE, tag=1))
    queue.push(entry(PriorityClass.BULK, tag=2))
    # A BULK arrival cannot evict its own class (FIFO honesty) and
    # never evicts a better one.
    result = queue.push(entry(PriorityClass.BULK, tag=3))
    assert not result.admitted and result.victim is None
    assert queue.depth == 2


def test_view_evicts_bulk_but_not_view_or_move():
    queue = ClassedFairQueue(bound=2)
    queue.push(entry(PriorityClass.MOVE, tag="m"))
    queue.push(entry(PriorityClass.VIEW, tag="v1"))
    refused = queue.push(entry(PriorityClass.VIEW, tag="v2"))
    assert not refused.admitted
    queue.pop(2)
    queue.push(entry(PriorityClass.BULK, tag="b"))
    queue.push(entry(PriorityClass.VIEW, tag="v3"))
    evicting = queue.push(entry(PriorityClass.VIEW, tag="v4"))
    assert evicting.admitted and evicting.victim.tx == "b"


def test_eviction_takes_tail_of_longest_lane():
    queue = ClassedFairQueue(bound=4)
    queue.push(entry(PriorityClass.BULK, client="small", tag="s0"))
    for tag in range(3):
        queue.push(entry(PriorityClass.BULK, client="big", tag=f"g{tag}"))
    result = queue.push(entry(PriorityClass.MOVE, tag="m"))
    # The client hogging the most slots gives back its *newest* entry.
    assert result.victim.client == "big" and result.victim.tx == "g2"
    survivors = [tag for _, _, tag in drain(queue)]
    assert survivors == ["m", "s0", "g0", "g1"]


def test_eviction_empties_lane_cleanly():
    queue = ClassedFairQueue(bound=1)
    queue.push(entry(PriorityClass.BULK, client="solo", tag="b"))
    result = queue.push(entry(PriorityClass.MOVE, tag="m"))
    assert result.victim.tx == "b"
    assert queue.class_depth[PriorityClass.BULK] == 0
    # A ring still naming the evicted client would fail here on its
    # deleted lane.
    assert [tag for _, _, tag in drain(queue)] == ["m"]


# ----------------------------------------------------------------------
# Accounting
# ----------------------------------------------------------------------


def test_depth_and_peak_accounting():
    queue = ClassedFairQueue(bound=3)
    for tag in range(3):
        queue.push(entry(PriorityClass.BULK, tag=tag))
    assert queue.depth == len(queue) == 3
    assert queue.peak_depth == 3
    queue.pop(2)
    assert queue.depth == 1
    assert queue.peak_depth == 3  # high-water mark survives the drain
    assert queue.depths_by_class() == {"move": 0, "view": 0, "bulk": 1}
