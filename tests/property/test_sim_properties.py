"""Property: the simulator fires events in ``(time, seq)`` order.

Hypothesis draws small *programs* — schedule an event (whose callback
may itself schedule or cancel others), cancel a handle, run to a
deadline, run a bounded number of events — and plays each program
twice: against :class:`~repro.net.sim.Simulator` and against
:class:`ReferenceSimulator`, a flat list that is re-sorted by
``(time, seq)`` for every pop.  Whatever the heap does internally, the
two must agree on every fired event (which, when, with which
arguments), every ``run`` return value, the clock and ``pending()``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.sim import Simulator


class _ReferenceHandle:
    def __init__(self, event):
        self._event = event

    def cancel(self):
        self._event["cancelled"] = True


class ReferenceSimulator:
    """The specification, written for obviousness rather than speed."""

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._events = []

    def schedule(self, delay, callback, *args):
        self._seq += 1
        event = {
            "time": self.now + delay,
            "seq": self._seq,
            "callback": callback,
            "args": args,
            "cancelled": False,
        }
        self._events.append(event)
        return _ReferenceHandle(event)

    def pending(self):
        return len(self._events)

    def run(self, until=None, max_events=None):
        processed = 0
        while self._events:
            if max_events is not None and processed >= max_events:
                break
            self._events.sort(key=lambda e: (e["time"], e["seq"]))
            event = self._events[0]
            if until is not None and event["time"] > until:
                self.now = until
                return processed
            del self._events[0]
            if event["cancelled"]:
                continue
            self.now = event["time"]
            event["callback"](*event["args"])
            processed += 1
        if until is not None and self.now < until:
            self.now = until
        return processed


# Few distinct delays, so same-time ties (decided by seq) are common.
delays = st.sampled_from([0.0, 0.0, 0.25, 1.0, 1.0, 2.5, 7.0])
cancels = st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=10**6))
actions = st.recursive(
    cancels | st.tuples(st.just("schedule"), delays, st.just(())),
    lambda inner: st.tuples(
        st.just("schedule"), delays, st.lists(cancels | inner, max_size=3)
    ),
    max_leaves=20,
)
runs = st.one_of(
    st.tuples(st.just("run"), st.sampled_from([0.0, 0.5, 1.0, 3.0]), st.none()),
    st.tuples(st.just("run"), st.none(), st.integers(min_value=0, max_value=4)),
    st.tuples(st.just("run"), st.none(), st.none()),
)
# schedules outnumber runs, so several events are pending at each run
programs = st.lists(st.one_of(actions, actions, actions, runs), max_size=40)


def play(sim, program):
    """Interpret ``program`` on ``sim``; returns everything observable."""
    log = []
    handles = []

    def do(action):
        if action[0] == "schedule":
            _kind, delay, children = action
            label = len(handles)
            handles.append(None)
            # The arguments ride on the event itself.
            handles[label] = sim.schedule(delay, fire, label, children)
        elif handles:  # cancel: before the target fires, after, or twice
            handles[action[1] % len(handles)].cancel()

    def fire(label, children):
        log.append(("fired", label, sim.now))
        for child in children:
            do(child)

    for step in program:
        if step[0] == "run":
            _kind, horizon, max_events = step
            until = None if horizon is None else sim.now + horizon
            processed = sim.run(until=until, max_events=max_events)
            log.append(("ran", processed, sim.now, sim.pending()))
        else:
            do(step)
    log.append(("drained", sim.run(), sim.now, sim.pending()))
    return log


@given(program=programs)
@settings(max_examples=300, deadline=None)
def test_simulator_matches_the_sorted_reference(program):
    assert play(Simulator(), program) == play(ReferenceSimulator(), program)


@given(count=st.integers(min_value=1, max_value=40), when=delays)
@settings(max_examples=40, deadline=None)
def test_same_time_events_fire_in_scheduling_order(count, when):
    sim = Simulator()
    fired = []
    for index in range(count):
        sim.schedule(when, fired.append, index)
    assert sim.run() == count
    assert fired == list(range(count))
    assert sim.now == when
