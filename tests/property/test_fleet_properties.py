"""Properties of the fleet's weighted-fair, classed admission plane.

Three contracts from ISSUE 10:

1. **Starvation-freedom** — under deficit round-robin, every backlogged
   client is served within a bounded number of popped entries, no
   matter how lopsided the arrival pattern: one client queueing 10×
   more work cannot push another's first entry past
   ``clients × quantum`` positions in the drain order.
2. **No priority inversion** — an entry never flushes while a
   higher-priority entry is queued at the same replica/chain.  Strict
   priority holds across arbitrary interleavings of pushes and
   budget-limited pops.
3. **Seed replay** — two runs of the fleet-routed workload from one
   seed commit the same state root and the same admission-log digest.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gateway.classes import FLUSH_ORDER, PriorityClass
from repro.gateway.fairqueue import ClassedFairQueue, QueueEntry

CLASSES = list(PriorityClass)


def entry(cls, client, tag):
    return QueueEntry(tx=tag, handle=None, cls=cls, client=client)


# ----------------------------------------------------------------------
# 1. Starvation-freedom
# ----------------------------------------------------------------------

backlogs = st.dictionaries(
    keys=st.sampled_from([f"c{i}" for i in range(6)]),
    values=st.integers(min_value=1, max_value=40),
    min_size=1,
    max_size=6,
)


@given(backlogs=backlogs, quantum=st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_drr_serves_every_backlogged_client_within_a_round(backlogs, quantum):
    queue = ClassedFairQueue(bound=10**9, quantum=quantum)
    for client, n in backlogs.items():
        for tag in range(n):
            queue.push(entry(PriorityClass.BULK, client, f"{client}-{tag}"))
    drained = queue.pop(10**9)
    # Everything drains, per-client FIFO order intact.
    assert len(drained) == sum(backlogs.values())
    for client, n in backlogs.items():
        mine = [e.tx for e in drained if e.client == client]
        assert mine == [f"{client}-{tag}" for tag in range(n)]
    # Bounded wait: each client's first entry appears within one full
    # round — no later than (number of clients) × quantum positions in.
    first_round = len(backlogs) * quantum
    for client in backlogs:
        first = next(i for i, e in enumerate(drained) if e.client == client)
        assert first < first_round


@given(
    hog_backlog=st.integers(min_value=10, max_value=200),
    quantum=st.integers(min_value=1, max_value=8),
    budget=st.integers(min_value=1, max_value=7),
)
@settings(max_examples=60, deadline=None)
def test_drr_micro_batches_cannot_starve_the_meek_client(
    hog_backlog, quantum, budget
):
    """Fairness must hold across budget-cut pops, not just within one:
    the meek client's single entry drains within the first two quanta
    of popped work even when every pop is budget-limited."""
    queue = ClassedFairQueue(bound=10**9, quantum=quantum)
    for tag in range(hog_backlog):
        queue.push(entry(PriorityClass.BULK, "hog", f"h{tag}"))
    queue.push(entry(PriorityClass.BULK, "meek", "m0"))
    popped = 0
    served_meek = None
    while queue.depth:
        for popped_entry in queue.pop(budget):
            if popped_entry.client == "meek":
                served_meek = popped
            popped += 1
    assert served_meek is not None
    assert served_meek <= 2 * quantum


# ----------------------------------------------------------------------
# 2. No priority inversion
# ----------------------------------------------------------------------

operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.sampled_from(CLASSES),
            st.sampled_from(["a", "b", "c"]),
        ),
        st.tuples(st.just("pop"), st.integers(min_value=1, max_value=5)),
    ),
    min_size=1,
    max_size=80,
)


@given(ops=operations)
@settings(max_examples=100, deadline=None)
def test_no_priority_inversion_under_interleaved_push_pop(ops):
    queue = ClassedFairQueue(bound=16, quantum=3)
    tag = 0
    for op in ops:
        if op[0] == "push":
            _, cls, client = op
            queue.push(entry(cls, client, tag))
            tag += 1
        else:
            drained = queue.pop(op[1])
            # Within one pop the output is ordered by class...
            classes = [e.cls for e in drained]
            assert classes == sorted(classes)
            # ...and nothing left behind outranks anything popped.
            remaining = [
                cls for cls in FLUSH_ORDER if queue.class_depth[cls] > 0
            ]
            if drained and remaining:
                assert min(remaining) >= max(classes)


@given(ops=operations)
@settings(max_examples=100, deadline=None)
def test_shed_never_evicts_equal_or_better_class(ops):
    queue = ClassedFairQueue(bound=8, quantum=3)
    tag = 0
    for op in ops:
        if op[0] == "push":
            _, cls, client = op
            result = queue.push(entry(cls, client, tag))
            tag += 1
            if result.victim is not None:
                assert result.victim.cls > cls
            if not result.admitted:
                # Refusal is only legal when no strictly lower class
                # was backlogged to give up a slot.
                assert all(
                    queue.class_depth[lower] == 0
                    for lower in FLUSH_ORDER
                    if lower > cls
                )
        else:
            queue.pop(op[1])
        assert queue.depth <= queue.bound


def test_gateway_never_flushes_bulk_past_queued_moves():
    """End-to-end inversion check at the gateway layer: with a budget
    smaller than the queue, every flush batch is exhausted in strict
    class order."""
    from repro.api import (
        Gateway,
        GatewayLimits,
        Node,
        TransferPayload,
        burrow_params,
        sign_transaction,
    )
    from repro.crypto.keys import KeyPair

    kp = KeyPair.from_name("inversion")
    node = Node(
        burrow_params(1, max_block_txs=100), verify_signatures=False
    )
    node.chain(1).fund({kp.address: 10**9})
    gateway = Gateway(
        node, GatewayLimits(max_queue_depth=64, batch_size=4)
    )
    order = ["bulk", "move", "view", "bulk", "move", "view", "bulk", "move"]
    for nonce, label in enumerate(order, start=1):
        tx = sign_transaction(
            kp, TransferPayload(to=kp.address, amount=1), nonce=nonce
        )
        gateway.submit(tx, 1, client_id="c", priority=label)
    while gateway.queue_depth(1):
        before = dict(gateway.class_depths(1))
        flushed = gateway.flush()
        after = dict(gateway.class_depths(1))
        # A class only drains after every better class already has.
        for better, worse in (("move", "view"), ("view", "bulk")):
            if after[better] > 0:
                assert after[worse] == before[worse]
        assert flushed > 0


# ----------------------------------------------------------------------
# 3. Seed replay for fleet-routed traffic
# ----------------------------------------------------------------------


def test_fleet_workload_replays_from_its_seed():
    from repro.workload.fleet import FleetWorkload

    outcomes = []
    for _run in range(2):
        workload = FleetWorkload(clients=24, replicas=3, total_rate=30.0, seed=7)
        report = workload.run(duration=20.0, drain=10.0)
        outcomes.append((report.final_root, report.log_digest))
        assert report.confirmed > 0
    assert outcomes[0] == outcomes[1]
