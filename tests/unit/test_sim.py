"""Unit tests for the discrete-event simulator."""

import pytest

from repro.errors import SimulationError
from repro.net.sim import Simulator


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, lambda: order.append("c"))
    sim.schedule(1.0, lambda: order.append("a"))
    sim.schedule(2.0, lambda: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.now == 3.0


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for name in "abc":
        sim.schedule(1.0, lambda n=name: order.append(n))
    sim.run()
    assert order == ["a", "b", "c"]


def test_run_until_stops_and_resumes():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda: fired.append(1))
    sim.schedule(5.0, lambda: fired.append(5))
    sim.run(until=2.0)
    assert fired == [1]
    assert sim.now == 2.0
    sim.run()
    assert fired == [1, 5]


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_events_can_schedule_events():
    sim = Simulator()
    seen = []

    def first():
        seen.append(sim.now)
        sim.schedule(2.0, lambda: seen.append(sim.now))

    sim.schedule(1.0, first)
    sim.run()
    assert seen == [1.0, 3.0]


def test_cancellation():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, lambda: fired.append(1))
    handle.cancel()
    sim.run()
    assert fired == []


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_at_absolute_time():
    sim = Simulator()
    times = []
    sim.schedule(1.0, lambda: sim.schedule_at(4.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [4.0]


def test_max_events_bound():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(float(i), lambda i=i: fired.append(i))
    processed = sim.run(max_events=4)
    assert processed == 4
    assert fired == [0, 1, 2, 3]


def test_rng_is_seeded_and_reproducible():
    a = Simulator(seed=42).rng.random()
    b = Simulator(seed=42).rng.random()
    c = Simulator(seed=43).rng.random()
    assert a == b
    assert a != c


def test_nan_delay_rejected():
    # Regression: the guard was `delay < 0`, which NaN passes; the event
    # then fired out of order with sim.now == nan in its callback.
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)
    assert sim.pending() == 0


def test_infinite_delay_rejected():
    # Regression: schedule(inf, f) never fired and sat in pending() forever.
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(float("inf"), lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at(float("inf"), lambda: None)
    assert sim.pending() == 0


def test_schedule_carries_arguments():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, seen.append, "late")
    sim.schedule(1.0, lambda a, b: seen.append((a, b)), 1, 2)
    sim.schedule_at(3.0, seen.append, "absolute")
    sim.run()
    assert seen == [(1, 2), "late", "absolute"]


def test_events_are_never_compared_beyond_seq():
    # Same-time events tie on the first slot; the unique seq decides,
    # so the heap must never fall through to comparing callbacks or
    # their arguments.
    class Incomparable:
        def __init__(self, log, name):
            self.log, self.name = log, name

        def __call__(self, *args):
            self.log.append(self.name)

        def __lt__(self, other):
            raise AssertionError("the heap compared two callbacks")

        __gt__ = __le__ = __ge__ = __lt__

    sim = Simulator()
    fired = []
    for index in range(50):
        # interleave two instants so the heap sifts in both directions
        sim.schedule(
            float(index % 2), Incomparable(fired, index), Incomparable(fired, "arg")
        )
    assert sim.run() == 50
    assert fired == list(range(0, 50, 2)) + list(range(1, 50, 2))


def test_cancel_after_fire_is_a_no_op():
    sim = Simulator()
    fired = []
    handle = sim.schedule(1.0, fired.append, 1)
    assert handle.time == 1.0
    sim.run()
    handle.cancel()
    sim.run()
    assert fired == [1] and sim.pending() == 0


# ----------------------------------------------------------------------
# Simulator.every: the one periodic loop
# ----------------------------------------------------------------------


def test_every_ticks_at_multiples_of_its_interval():
    sim = Simulator()
    seen = []
    sim.every(2.5, lambda tag: seen.append((tag, sim.now)), "tick")
    sim.run(until=10.0)
    assert seen == [("tick", 2.5), ("tick", 5.0), ("tick", 7.5), ("tick", 10.0)]


def test_every_cancel_stops_the_loop_and_leaves_no_live_event():
    sim = Simulator()
    seen = []
    loop = sim.every(1.0, lambda: seen.append(sim.now))
    sim.run(until=2.5)
    loop.cancel()
    loop.cancel()  # idempotent
    assert sim.run() == 0
    assert seen == [1.0, 2.0]


def test_every_cancel_from_inside_the_callback():
    sim = Simulator()
    seen = []

    def tick():
        seen.append(sim.now)
        if len(seen) == 3:
            loop.cancel()

    loop = sim.every(1.0, tick)
    assert sim.run() == 3
    assert seen == [1.0, 2.0, 3.0] and sim.pending() == 0


def test_every_loops_are_independent():
    sim = Simulator()
    seen = []
    fast = sim.every(1.0, lambda: seen.append(("fast", sim.now)))
    sim.every(1.5, lambda: seen.append(("slow", sim.now)))
    sim.run(until=3.0)
    fast.cancel()
    sim.run(until=6.0)
    assert seen == [
        ("fast", 1.0), ("slow", 1.5), ("fast", 2.0),
        # at 3.0 the slow tick was scheduled first (at 1.5, not 2.0)
        ("slow", 3.0), ("fast", 3.0),
        ("slow", 4.5), ("slow", 6.0),
    ]


def test_every_schedules_its_successor_after_the_callback():
    # Same-time order: an event the callback schedules at the next tick's
    # instant fires before that tick.
    sim = Simulator()
    seen = []

    def tick():
        seen.append("tick")
        sim.schedule(1.0, seen.append, "scheduled")

    sim.every(1.0, tick)
    sim.run(until=2.0)
    assert seen == ["tick", "scheduled", "tick"]


@pytest.mark.parametrize("interval", [0.0, -1.0, float("nan"), float("inf")])
def test_every_refuses_an_interval_that_is_not_finite_and_positive(interval):
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.every(interval, lambda: None)
    assert sim.pending() == 0
