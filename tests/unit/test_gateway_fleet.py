"""Unit tests for the gateway fleet, subscriptions and SDK ergonomics.

Covers the fleet's coordination guarantees (stable routing, the shared
admission budget, rotating flush order, a restart that cancels the old
flush loop), the push subscription path, victim-attributed shed
accounting, and the
client-facing ergonomics added with the fleet (``priority=``,
``handle.wait(timeout=)``, keyword-only validated ``Client``).
"""

import hashlib

import pytest

from repro.api import (
    Client,
    ConfigError,
    Gateway,
    GatewayFleet,
    GatewayLimits,
    Node,
    PriorityClass,
    RequestTimeout,
    ShedByClass,
    SimNetTransport,
    TransferPayload,
    burrow_params,
    sign_transaction,
)
from repro.crypto.keys import KeyPair

ALICE = KeyPair.from_name("fleet-test-alice")
BOB = KeyPair.from_name("fleet-test-bob")


def make_node(**params):
    params.setdefault("max_block_txs", 100)
    node = Node(burrow_params(1, **params), verify_signatures=False)
    node.chain(1).fund({ALICE.address: 10**9, BOB.address: 10**9})
    return node


def transfer(n=1, sender=ALICE, nonce=None):
    return sign_transaction(
        sender, TransferPayload(to=BOB.address, amount=n), nonce=nonce
    )


# ----------------------------------------------------------------------
# Routing
# ----------------------------------------------------------------------


def test_routing_is_stable_and_spreads_clients():
    fleet = GatewayFleet(make_node(), replicas=4)
    routed = {f"client-{i}": fleet.replica_for(f"client-{i}") for i in range(64)}
    # Stable: the same id always lands on the same replica.
    for client_id, replica in routed.items():
        assert fleet.replica_for(client_id) is replica
    # Spread: 64 ids across 4 replicas should touch every replica.
    assert len({r.index for r in routed.values()}) == 4


def test_submissions_route_to_the_pinned_replica():
    fleet = GatewayFleet(make_node(), replicas=4)
    replica = fleet.replica_for("alice")
    fleet.submit(transfer(), 1, client_id="alice")
    assert replica.queue_depth(1) == 1
    for other in fleet.replicas:
        if other is not replica:
            assert other.queue_depth(1) == 0


def test_idempotency_survives_fleet_routing():
    fleet = GatewayFleet(make_node(), replicas=4)
    first = fleet.submit(transfer(), 1, client_id="alice", idempotency_key="k")
    retry = fleet.submit(
        transfer(nonce=9), 1, client_id="alice", idempotency_key="k"
    )
    assert retry.tx_id == first.tx_id  # same replica, same key table


def expected_replica(fleet, client_id):
    """The routing rule written out: sha256 of the id, first 8 bytes."""
    digest = hashlib.sha256(client_id.encode("utf-8")).digest()
    return fleet.replicas[int.from_bytes(digest[:8], "big") % len(fleet.replicas)]


def test_pin_table_is_bounded_and_never_changes_an_answer():
    limits = GatewayLimits(max_clients=16)
    fleet = GatewayFleet(make_node(), replicas=4, limits=limits)
    ids = [f"client-{i}" for i in range(10 * limits.max_clients)]
    for client_id in ids:
        assert fleet.replica_for(client_id) is expected_replica(fleet, client_id)
        assert len(fleet._pins) <= limits.max_clients
    # Every id — the 144 evicted ones included — still routes by the rule.
    for client_id in ids:
        assert fleet.replica_for(client_id) is expected_replica(fleet, client_id)
    assert len(fleet._pins) <= limits.max_clients


def test_a_client_stays_on_one_replica_across_pin_eviction():
    limits = GatewayLimits(max_clients=4, rate_limit=1.0, rate_burst=2)
    node = make_node()
    fleet = GatewayFleet(node, replicas=4, limits=limits)
    home = fleet.replica_for("alice")
    first = fleet.submit(transfer(nonce=1), 1, client_id="alice", idempotency_key="k")
    second = fleet.submit(transfer(nonce=2), 1, client_id="alice")
    assert first.status == second.status == "queued"
    # Enough other clients to push alice's pin out of the table.
    for i in range(8):
        fleet.replica_for(f"other-{i}")
    assert "alice" not in fleet._pins
    # Same idempotency table: the retry reattaches instead of re-admitting.
    retry = fleet.submit(transfer(nonce=3), 1, client_id="alice", idempotency_key="k")
    assert retry.tx_id == first.tx_id
    # Same rate bucket: alice's burst of 2 is already spent there.
    limited = fleet.submit(transfer(nonce=4), 1, client_id="alice")
    assert limited.error is not None and limited.error.code == "rate_limited"
    # Same FIFO lane: everything alice queued sits on her one replica,
    # in submission order.
    assert home.queue_depth(1) == 2 and fleet.queue_depth(1) == 2
    fleet.flush()
    assert [tx.nonce for tx in node.chain(1).mempool.take(10)] == [1, 2]


@pytest.mark.parametrize(
    "kwargs", [{"latency": float("nan")}, {"jitter": float("nan")}],
    ids=["latency", "jitter"],
)
def test_transport_rejects_nan_latency_and_jitter(kwargs):
    # Regression: NaN passed the `< 0` check and reached the simulator
    # as a NaN delay.
    with pytest.raises(ConfigError, match="latency/jitter"):
        SimNetTransport(Gateway(make_node()), **kwargs)


def test_replicas_validated():
    with pytest.raises(ConfigError, match="replicas"):
        GatewayFleet(make_node(), replicas=0)


# ----------------------------------------------------------------------
# The shared admission budget
# ----------------------------------------------------------------------


def test_fleet_flush_respects_one_shared_headroom():
    node = make_node(max_block_txs=5)
    fleet = GatewayFleet(
        node,
        replicas=4,
        limits=GatewayLimits(
            max_queue_depth=64, batch_size=64, mempool_headroom=2
        ),
    )
    # Load every replica's queue well past the shared headroom.
    for i in range(40):
        fleet.submit(transfer(nonce=i), 1, client_id=f"c{i}")
    assert fleet.queue_depth(1) == 40
    # One fleet flush: the *sum* across replicas is capped at
    # headroom × max_block_txs = 10 — not 10 per replica.
    assert fleet.flush() == 10
    assert len(node.chain(1).mempool) == 10
    assert fleet.flush() == 0  # still no headroom anywhere
    node.chain(1).produce_block(5.0)  # commits 5
    assert fleet.flush() == 5


def test_flush_rotation_moves_first_claim():
    node = make_node(max_block_txs=2)
    fleet = GatewayFleet(
        node,
        replicas=2,
        limits=GatewayLimits(
            max_queue_depth=64, batch_size=64, mempool_headroom=1
        ),
    )
    # Both replicas backlogged; headroom admits only 2 per tick.
    for i in range(20):
        fleet.submit(transfer(nonce=i), 1, client_id=f"c{i}")
    assert all(r.queue_depth(1) > 0 for r in fleet.replicas)
    fleet.flush()
    first_tick = [r for _, kind, r, *_ in fleet.admission_log if kind == "flush"]
    node.chain(1).produce_block(5.0)
    fleet.flush()
    second_tick = [
        r for _, kind, r, *_ in fleet.admission_log if kind == "flush"
    ][len(first_tick):]
    # The replica that got the scarce budget changed between ticks.
    assert first_tick and second_tick
    assert first_tick[0] != second_tick[0]


# ----------------------------------------------------------------------
# Lifecycle
# ----------------------------------------------------------------------


def test_fleet_restart_does_not_double_flush():
    node = make_node()
    fleet = GatewayFleet(
        node, replicas=2, limits=GatewayLimits(flush_interval=1.0)
    )
    fleet.start()
    fleet.stop()
    fleet.start()  # a stale tick timer from the first start is pending
    node.run_for(10.0)
    ticks = fleet.telemetry.metrics.counter("gateway_fleet_flush_ticks_total")
    # ~10 ticks from one live loop; a doubled loop would show ~20.
    assert ticks.value <= 12
    fleet.stop()


def test_node_serve_convenience():
    node = make_node()
    assert isinstance(node.serve(), Gateway)
    fleet = make_node().serve(replicas=3)
    assert isinstance(fleet, GatewayFleet)
    assert len(fleet) == 3


def test_fleet_health_shape():
    fleet = GatewayFleet(make_node(), replicas=2)
    fleet.submit(transfer(), 1, client_id="alice", priority="view")
    health = fleet.health()
    assert health["serving"] is False
    assert health["replicas"] == 2
    assert health["queues"] == {1: 1}
    assert health["classes"][1]["view"] == 1
    assert len(health["per_replica"]) == 2
    assert not health["degraded"]


def pinned_ids(fleet):
    """One client id pinned to each replica, in replica order."""
    ids = {}
    i = 0
    while len(ids) < len(fleet.replicas):
        ids.setdefault(expected_replica(fleet, f"client-{i}").index, f"client-{i}")
        i += 1
    return [ids[index] for index in range(len(fleet.replicas))]


def test_depth_and_subscription_gauges_are_gateway_wide():
    # Regression: each replica wrote the shared depth gauges with its
    # own depth, and each replica's hub wrote the subscription gauge
    # with its own count — the last writer won.
    node = make_node(max_block_txs=1)
    fleet = GatewayFleet(
        node, replicas=2, limits=GatewayLimits(mempool_headroom=1)
    )
    first, second = pinned_ids(fleet)
    fleet.submit(transfer(nonce=0), 1, client_id=first)
    assert fleet.flush() == 1  # the mempool now holds its whole headroom
    for nonce, client_id in enumerate((first, first, second, second), start=1):
        fleet.submit(transfer(nonce=nonce), 1, client_id=client_id)
    assert fleet.flush() == 0
    assert [r.queue_depth(1) for r in fleet.replicas] == [2, 2]
    metrics = fleet.telemetry.metrics
    assert metrics.gauge("gateway_queue_depth", chain=1).value == fleet.queue_depth(1) == 4
    assert metrics.gauge("gateway_class_depth", chain=1, cls="bulk").value == 4
    subs = [fleet.watch_contract(1, BOB.address, client_id=c) for c in (first, second)]
    assert metrics.gauge("gateway_subscriptions_active").value == 2
    subs[0].cancel()
    assert metrics.gauge("gateway_subscriptions_active").value == 1


# ----------------------------------------------------------------------
# Victim-attributed shed accounting
# ----------------------------------------------------------------------


def test_eviction_charges_the_victim_not_the_enqueuer():
    node = make_node()
    fleet = GatewayFleet(node, replicas=1, limits=GatewayLimits(max_queue_depth=2))
    bulk = [
        fleet.submit(transfer(nonce=i), 1, client_id="hog") for i in range(2)
    ]
    move = fleet.submit(
        transfer(nonce=9), 1, client_id="vip", priority="move"
    )
    # The move was admitted by evicting hog's newest bulk entry.
    assert not move.done
    victim = bulk[1]
    assert isinstance(victim.error, ShedByClass)
    assert victim.error.shed_class == "bulk"
    assert victim.error.shed_client == "hog"
    assert victim.error.chain_id == 1
    shed = fleet.telemetry.metrics.counter(
        "gateway_queue_shed_total", chain=1, cls="bulk"
    )
    assert shed.value == 1
    # No shed charged to the move class that triggered the eviction.
    move_shed = fleet.telemetry.metrics.counter(
        "gateway_queue_shed_total", chain=1, cls="move"
    )
    assert move_shed.value == 0
    # The admission log recorded the shed against the victim too.
    sheds = [rec for rec in fleet.admission_log if rec[1] == "shed"]
    assert sheds and sheds[0][4] == "bulk" and sheds[0][5] == "hog"


def test_refused_newcomer_is_charged_itself():
    node = make_node()
    gateway = Gateway(node, GatewayLimits(max_queue_depth=1))
    gateway.submit(transfer(), 1, client_id="a")
    shed = gateway.submit(transfer(nonce=2), 1, client_id="b")
    assert isinstance(shed.error, ShedByClass)
    assert shed.error.shed_class == "bulk"
    assert shed.error.shed_client == "b"
    counter = gateway.telemetry.metrics.counter(
        "gateway_queue_shed_total", chain=1, cls="bulk"
    )
    assert counter.value == 1


def test_parked_overflow_shed_attributes_the_dropped_entry():
    node = Node(
        [burrow_params(1, max_block_txs=100), burrow_params(2, max_block_txs=100)],
        verify_signatures=False,
    )
    gateway = Gateway(node, GatewayLimits(max_queue_depth=1, max_blocked=1))
    gateway.submit(transfer(nonce=1), 1, client_id="a", priority="move")  # queued
    parked = gateway.move(ALICE, ALICE.address, 1, 2, client_id="a")  # Move1 parked
    assert not parked.done
    shed = gateway.move(BOB, BOB.address, 1, 2, client_id="b")  # lot full
    assert isinstance(shed.error, ShedByClass)
    # The entry dropped at the parked-overflow path is the arriving
    # Move1 itself — charged to its own class/client, not to whoever
    # filled the lot.
    assert shed.error.shed_class == "move"
    assert shed.error.shed_client == "b"
    counter = gateway.telemetry.metrics.counter(
        "gateway_queue_shed_total", chain=1, cls="move"
    )
    assert counter.value == 1


def test_priority_classes_flush_before_bulk():
    node = make_node()
    gateway = Gateway(node, GatewayLimits(max_queue_depth=64))
    bulk_tx = transfer(nonce=1)
    view_tx = transfer(nonce=2)
    move_tx = transfer(nonce=3)
    gateway.submit(bulk_tx, 1, client_id="a")
    gateway.submit(view_tx, 1, client_id="a", priority="view")
    gateway.submit(move_tx, 1, client_id="a", priority=PriorityClass.MOVE)
    gateway.flush()
    flushed = [tx.tx_id for tx in node.chain(1).mempool.take(10)]
    assert flushed == [move_tx.tx_id, view_tx.tx_id, bulk_tx.tx_id]


# ----------------------------------------------------------------------
# Subscriptions
# ----------------------------------------------------------------------


def test_watch_contract_pushes_committed_events():
    node = make_node()
    fleet = GatewayFleet(node, replicas=2)
    client = Client(fleet, keypair=ALICE)

    # Watching an address with no contract traffic stays quiet:
    # transfers don't target a contract, so no events are pushed.
    sub = fleet.watch_contract(1, BOB.address, client_id="alice")
    assert sub.active
    fleet.submit(transfer(), 1, client_id="alice")
    fleet.flush()
    node.chain(1).produce_block(5.0)
    assert sub.events == []
    sub.cancel()
    assert not sub.active


def test_watch_contract_streams_calls_and_deploys():
    from repro.lang import MovableContract
    from repro.runtime import Slot, external, register_contract, view

    @register_contract
    class Box(MovableContract):
        value = Slot(int, default=0)

        @external
        def put(self, v):
            self.value = v

        @view
        def get(self):
            return self.value

    node = make_node()
    fleet = GatewayFleet(node, replicas=2)
    client = Client(fleet, keypair=ALICE)
    fleet.start()
    box = client.deploy(Box).wait().return_value

    sub = client.watch_contract(box)
    events = []
    sub.on_event(events.append)
    client.call(box, "put", 42).wait()
    assert [e["type"] for e in events] == ["call"]
    assert events[0]["method"] == "put"
    assert events[0]["ok"] is True
    assert sub.events == events
    # A late subscriber replays nothing (no events before it attached),
    # but cancel stops the stream immediately.
    sub.cancel()
    client.call(box, "put", 43).wait()
    assert len(events) == 1
    fleet.stop()


def test_watch_move_streams_stages_then_done():
    params = [
        burrow_params(1, max_block_txs=100),
        burrow_params(2, max_block_txs=100),
    ]
    node = Node(params, verify_signatures=False)
    node.chain(1).fund({ALICE.address: 10**9})

    from repro.lang import MovableContract
    from repro.runtime import Slot, external, register_contract

    @register_contract
    class Roamer(MovableContract):
        ticks = Slot(int, default=0)

        @external
        def tick(self):
            self.ticks = self.ticks + 1

    fleet = GatewayFleet(node, replicas=2)
    client = Client(fleet, keypair=ALICE)
    fleet.start()
    contract = client.deploy(Roamer, chain=1).wait().return_value

    handle = client.move(contract, target_chain=2, source_chain=1)
    sub = client.watch_move(handle)
    stages = []
    sub.on_event(lambda e: stages.append(e.get("stage", e["type"])))
    assert stages == ["move1"]  # already-traversed stages replay
    handle.wait()
    assert stages[-1] == "done"
    assert stages.index("move1") < stages.index("confirm") < stages.index("move2")
    assert not sub.active  # terminal event closes the subscription
    fleet.stop()


def test_watch_paths_are_rate_limited():
    node = make_node()
    fleet = GatewayFleet(
        node, replicas=1, limits=GatewayLimits(rate_limit=1.0, rate_burst=1)
    )
    fleet.watch_contract(1, BOB.address, client_id="alice")
    from repro.errors import RateLimited

    with pytest.raises(RateLimited):
        fleet.watch_contract(1, BOB.address, client_id="alice")


# ----------------------------------------------------------------------
# Client ergonomics
# ----------------------------------------------------------------------


def test_client_kwargs_are_keyword_only():
    gateway = Gateway(make_node())
    with pytest.raises(TypeError):
        Client(gateway, ALICE)  # positional keypair


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"keypair": "not-a-keypair"}, "keypair"),
        ({"name": 42}, "name"),
        ({"name": "x", "default_chain": "one"}, "default_chain"),
        ({"name": "x", "default_chain": True}, "default_chain"),
    ],
)
def test_client_validation_names_the_field(kwargs, field):
    gateway = Gateway(make_node())
    with pytest.raises(ConfigError, match=field):
        Client(gateway, **kwargs)


def test_priority_plumbs_through_both_transports():
    # A client talks to the gateway itself or through the network hop.
    for make_transport in (lambda g: g, SimNetTransport):
        node = make_node()
        gateway = Gateway(node)
        transport = make_transport(gateway)
        client = Client(transport, keypair=ALICE)
        gateway.start()
        handle = client.transfer(BOB.address, 1, priority="move")
        client.wait(handle)
        admitted = gateway.telemetry.metrics.counter(
            "gateway_class_admitted_total", chain=1, cls="move"
        )
        assert admitted.value == 1, type(transport).__name__
        gateway.stop()


def test_handle_wait_returns_receipt_and_times_out():
    node = make_node()
    gateway = Gateway(node)
    client = Client(gateway, keypair=ALICE)
    gateway.start()
    receipt = client.transfer(BOB.address, 5).wait()
    assert receipt.success
    gateway.stop()
    # With the gateway stopped nothing flushes: wait's own timeout
    # fires as a typed error.
    stuck = client.transfer(BOB.address, 5)
    with pytest.raises(RequestTimeout):
        stuck.wait(timeout=3.0)


def test_wait_composes_with_request_deadline():
    node = make_node()
    gateway = Gateway(node, GatewayLimits(request_timeout=2.0))
    client = Client(gateway, keypair=ALICE)
    # Not started: the admission deadline (2 s) fires before wait's own
    # bound (60 s) and wait re-raises the gateway's typed timeout.
    handle = client.transfer(BOB.address, 1)
    with pytest.raises(RequestTimeout):
        handle.wait(timeout=60.0)
    assert isinstance(handle.error, RequestTimeout)


def test_unbound_handle_wait_is_a_typed_error():
    from repro.errors import GatewayError
    from repro.gateway.handles import RequestHandle

    with pytest.raises(GatewayError, match="not bound"):
        RequestHandle(1).wait()
