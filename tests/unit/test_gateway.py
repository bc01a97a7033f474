"""Unit tests for the request gateway: bounds, sheds, retries, limits.

Everything here drives the gateway synchronously — manual ``flush()``
calls and manual block production — so each admission decision is
observable in isolation.  The end-to-end behaviours (64-client
saturation, byte-identical determinism) live in
``tests/property/test_gateway_determinism.py``.
"""

import pytest

from repro.api import (
    Client,
    ConfigError,
    Gateway,
    GatewayLimits,
    InvalidRequest,
    Move1Payload,
    Node,
    Overloaded,
    ShedByClass,
    RateLimited,
    RequestTimeout,
    SimNetTransport,
    Transaction,
    TransferPayload,
    UnknownChainError,
    burrow_params,
    sign_transaction,
)
from repro.crypto.keys import KeyPair
from repro.gateway.limits import TokenBucket

ALICE = KeyPair.from_name("gw-test-alice")
BOB = KeyPair.from_name("gw-test-bob")


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
# Queue bounds and shed policies
# ----------------------------------------------------------------------


def test_queue_bound_sheds_typed_queue_full():
    node = make_node()
    gateway = Gateway(node, GatewayLimits(max_queue_depth=4))
    handles = [
        gateway.submit(transfer(nonce=i), 1, client_id="a") for i in range(10)
    ]
    admitted = [h for h in handles if not h.done]
    shed = [h for h in handles if h.done]
    assert len(admitted) == 4 and len(shed) == 6
    for handle in shed:
        with pytest.raises(ShedByClass) as excinfo:
            handle.result()
        assert excinfo.value.code == "queue_full"
        assert isinstance(excinfo.value, Overloaded)
    assert gateway.peak_queue_depth[1] == 4


def test_untagged_move1_is_move_class_and_transfer_is_bulk():
    # Default-by-payload classification: nobody passes priority=.
    node = make_node()
    gateway = Gateway(node)
    move1 = sign_transaction(
        ALICE, Move1Payload(contract=ALICE.address, target_chain=2)
    )
    assert not gateway.submit(move1, 1, client_id="a").done
    assert not gateway.submit(transfer(), 1, client_id="a").done
    admitted = {
        cls: gateway.telemetry.metrics.counter(
            "gateway_class_admitted_total", chain=1, cls=cls
        ).value
        for cls in ("move", "view", "bulk")
    }
    assert admitted == {"move": 1, "view": 0, "bulk": 1}


def test_mid_move_transactions_park_then_shed():
    # The overflow lot serves one caller: a served move's own protocol
    # transactions, which park at a full queue instead of being shed.
    node = Node(
        [burrow_params(1, max_block_txs=100), burrow_params(2, max_block_txs=100)],
        verify_signatures=False,
    )
    node.chain(1).fund({ALICE.address: 10**9, BOB.address: 10**9})
    gateway = Gateway(node, GatewayLimits(max_queue_depth=2, max_blocked=3))
    queued = [transfer(nonce=i) for i in range(2)]
    for tx in queued:
        # MOVE class: nothing below a mid-move Move1 is left to evict.
        assert not gateway.submit(tx, 1, client_id="a", priority="move").done
    movers = [KeyPair.from_name(f"gw-test-mover-{i}") for i in range(6)]
    moves = [gateway.move(kp, kp.address, 1, 2, client_id="a") for kp in movers]
    shed = [m for m in moves if m.done]
    assert len(shed) == 3  # 2 queued + 3 parked, the rest shed
    assert all(isinstance(m.error, ShedByClass) for m in shed)
    assert gateway.queue_depth(1) == 5
    assert gateway.stats()["parked"][1] == 3
    # A flush drains queue and promotes the parked Move1s FIFO.
    assert gateway.flush() == 5
    assert gateway.queue_depth(1) == 0
    flushed = node.chain(1).mempool.take(10)
    assert [tx.tx_id for tx in flushed[:2]] == [tx.tx_id for tx in queued]
    assert [tx.sender for tx in flushed[2:]] == [kp.address for kp in movers[:3]]


def test_stats_count_parked_as_queued_for_any_replica_count():
    # Regression: a lone gateway reported only the queue in "queued"
    # while queue_depth() and health() count the parked entries too.
    def two_chain_node():
        node = Node(
            [burrow_params(1, max_block_txs=100), burrow_params(2, max_block_txs=100)],
            verify_signatures=False,
        )
        node.chain(1).fund({ALICE.address: 10**9})
        return node

    limits = GatewayLimits(max_queue_depth=1, max_blocked=2)
    gateway = Gateway(two_chain_node(), limits)
    gateway.submit(transfer(), 1, client_id="a", priority="move")
    for i in range(2):
        mover = KeyPair.from_name(f"gw-test-parker-{i}")
        assert not gateway.move(mover, mover.address, 1, 2, client_id="a").done
    stats = gateway.stats()
    assert stats["queued"] == {1: 3, 2: 0}
    assert stats["parked"] == {1: 2, 2: 0}
    assert stats["queued"][1] == gateway.queue_depth(1) == gateway.health()["queues"][1]
    assert stats["per_replica"] == [{1: 3, 2: 0}]
    replicated = Gateway(two_chain_node(), limits, replicas=3)
    assert set(replicated.stats()) == set(stats)


def test_flush_preserves_admission_order():
    node = make_node()
    gateway = Gateway(node, GatewayLimits(max_queue_depth=64))
    txs = [transfer(nonce=i) for i in range(10)]
    for tx in txs:
        gateway.submit(tx, 1)
    gateway.flush()
    chain = node.chain(1)
    assert [tx.tx_id for tx in chain.mempool.take(100)] == [tx.tx_id for tx in txs]


def test_mempool_headroom_caps_flush():
    node = make_node(max_block_txs=5)
    gateway = Gateway(
        node, GatewayLimits(max_queue_depth=64, batch_size=64, mempool_headroom=2)
    )
    for i in range(30):
        gateway.submit(transfer(nonce=i), 1)
    # Only headroom×max_block_txs = 10 may sit in the mempool at once.
    assert gateway.flush() == 10
    assert len(node.chain(1).mempool) == 10
    assert gateway.flush() == 0  # still no headroom
    node.chain(1).produce_block(5.0)  # commits 5
    assert gateway.flush() == 5


def test_resolution_to_receipt():
    node = make_node()
    gateway = Gateway(node)
    handle = gateway.submit(transfer(), 1)
    assert not handle.done and handle.status == "queued"
    gateway.flush()
    assert handle.status == "submitted"
    node.chain(1).produce_block(5.0)
    assert handle.ok
    assert handle.result().success
    assert handle.result().tx_id == handle.tx_id


# ----------------------------------------------------------------------
# Rate limiting
# ----------------------------------------------------------------------


def test_token_bucket_refills_on_simulated_time():
    bucket = TokenBucket(rate=2.0, burst=2, now=0.0)
    assert bucket.take(0.0) and bucket.take(0.0)
    assert not bucket.take(0.0)
    assert bucket.take(1.0)  # 2 tokens/s × 1 s refill
    assert bucket.take(1.0)
    assert not bucket.take(1.0)


def test_rate_limit_is_per_client():
    node = make_node()
    gateway = Gateway(
        node, GatewayLimits(rate_limit=1.0, rate_burst=2, max_queue_depth=64)
    )
    a = [gateway.submit(transfer(nonce=i), 1, client_id="a") for i in range(4)]
    b = [gateway.submit(transfer(nonce=10 + i), 1, client_id="b") for i in range(2)]
    assert [h.done for h in a] == [False, False, True, True]
    assert all(not h.done for h in b)  # b has its own bucket
    with pytest.raises(RateLimited) as excinfo:
        a[2].result()
    assert excinfo.value.code == "rate_limited"
    assert isinstance(excinfo.value, Overloaded)


# ----------------------------------------------------------------------
# Deadlines and idempotent retries
# ----------------------------------------------------------------------


def test_request_timeout_fires_with_typed_error():
    node = make_node()
    gateway = Gateway(node, GatewayLimits(request_timeout=3.0))
    handle = gateway.submit(transfer(), 1)
    node.sim.run(until=10.0)  # gateway never started: nothing flushes
    assert handle.done
    with pytest.raises(RequestTimeout) as excinfo:
        handle.result()
    assert excinfo.value.code == "timeout"


def test_idempotent_retry_attaches_to_pending_original():
    node = make_node()
    gateway = Gateway(node)
    first = gateway.submit(transfer(), 1, client_id="a", idempotency_key="k")
    retry = gateway.submit(transfer(nonce=99), 1, client_id="a", idempotency_key="k")
    assert retry.tx_id == first.tx_id  # the retry's own tx was dropped
    gateway.flush()
    node.chain(1).produce_block(5.0)
    assert first.ok and retry.ok
    assert retry.result().tx_id == first.result().tx_id


def test_idempotent_retry_after_resolution_gets_original_receipt():
    node = make_node()
    gateway = Gateway(node)
    first = gateway.submit(transfer(), 1, client_id="a", idempotency_key="k")
    gateway.flush()
    node.chain(1).produce_block(5.0)
    assert first.ok
    retry = gateway.submit(transfer(nonce=99), 1, client_id="a", idempotency_key="k")
    assert retry.ok
    assert retry.result() is first.result()


def test_shed_retry_with_same_key_is_readmitted():
    node = make_node()
    gateway = Gateway(node, GatewayLimits(max_queue_depth=1))
    gateway.submit(transfer(), 1, client_id="a", idempotency_key="k1")
    shed = gateway.submit(transfer(nonce=2), 1, client_id="a", idempotency_key="k2")
    assert isinstance(shed.error, ShedByClass)
    gateway.flush()  # frees the queue slot, as the shed message promises
    retry = gateway.submit(transfer(nonce=2), 1, client_id="a", idempotency_key="k2")
    assert not retry.done  # fresh admission, not a mirror of the shed
    gateway.flush()
    node.chain(1).produce_block(5.0)
    assert retry.ok


def test_rate_limited_retry_with_same_key_is_readmitted():
    node = make_node()
    gateway = Gateway(node, GatewayLimits(rate_limit=1.0, rate_burst=1))
    gateway.submit(transfer(), 1, client_id="a", idempotency_key="k1")
    limited = gateway.submit(transfer(nonce=2), 1, client_id="a", idempotency_key="k2")
    assert isinstance(limited.error, RateLimited)
    node.sim.run(until=2.0)  # the bucket refills
    retry = gateway.submit(transfer(nonce=2), 1, client_id="a", idempotency_key="k2")
    assert not retry.done


def test_timeout_retry_reattaches_to_eventual_receipt():
    node = make_node()
    gateway = Gateway(node, GatewayLimits(request_timeout=2.0))
    first = gateway.submit(transfer(), 1, client_id="a", idempotency_key="k")
    node.sim.run(until=5.0)  # never flushed: the deadline fires
    assert isinstance(first.error, RequestTimeout)
    retry = gateway.submit(transfer(nonce=9), 1, client_id="a", idempotency_key="k")
    assert not retry.done
    gateway.flush()  # the original transaction is still submitted...
    node.chain(1).produce_block(node.now)
    assert retry.ok  # ...and the retry resolves to its receipt
    assert retry.result().tx_id == first.tx_id
    assert first.receipt is retry.result()  # late receipt recorded on the original


def test_timeout_retry_after_late_receipt_resolves_immediately():
    node = make_node()
    gateway = Gateway(node, GatewayLimits(request_timeout=2.0))
    first = gateway.submit(transfer(), 1, client_id="a", idempotency_key="k")
    node.sim.run(until=5.0)
    gateway.flush()
    node.chain(1).produce_block(node.now)
    assert isinstance(first.error, RequestTimeout) and first.receipt is not None
    retry = gateway.submit(transfer(nonce=9), 1, client_id="a", idempotency_key="k")
    assert retry.ok
    assert retry.result() is first.receipt


def test_idempotency_records_evicted_after_retention():
    node = make_node()
    gateway = Gateway(node, GatewayLimits(idempotency_retention=10.0))
    first = gateway.submit(transfer(), 1, client_id="a", idempotency_key="k")
    gateway.flush()
    node.chain(1).produce_block(1.0)
    assert first.ok and ("a", "k") in gateway._by_key
    node.sim.run(until=5.0)
    assert ("a", "k") in gateway._by_key  # inside the replay window
    node.sim.run(until=20.0)
    assert ("a", "k") not in gateway._by_key  # evicted: table stays bounded
    retry = gateway.submit(transfer(nonce=2), 1, client_id="a", idempotency_key="k")
    assert retry.tx_id != first.tx_id  # outside the window: fresh admission


def test_token_buckets_are_lru_capped():
    node = make_node()
    gateway = Gateway(node, GatewayLimits(rate_limit=100.0, max_clients=4))
    for i in range(10):
        gateway.submit(transfer(nonce=i), 1, client_id=f"c{i}")
    assert set(gateway._buckets) == {"c6", "c7", "c8", "c9"}


def test_idempotency_keys_are_scoped_per_client():
    node = make_node()
    gateway = Gateway(node)
    a = gateway.submit(transfer(), 1, client_id="a", idempotency_key="k")
    b = gateway.submit(transfer(nonce=2), 1, client_id="b", idempotency_key="k")
    assert a.tx_id != b.tx_id
    assert gateway.queue_depth(1) == 2


# ----------------------------------------------------------------------
# Error taxonomy at the boundary
# ----------------------------------------------------------------------


def test_unknown_chain_is_typed():
    gateway = Gateway(make_node())
    handle = gateway.submit(transfer(), 7)
    with pytest.raises(UnknownChainError) as excinfo:
        handle.result()
    assert excinfo.value.code == "unknown_chain"


def test_malformed_request_maps_to_invalid_request():
    gateway = Gateway(make_node())
    handle = gateway.submit(TransferPayload(to=BOB.address, amount=1), 1)
    with pytest.raises(InvalidRequest) as excinfo:
        handle.result()
    assert excinfo.value.code == "invalid_request"


def _served_over_the_network():
    """A started gateway behind a simulated network hop: admission is a
    simulator event, so a raise inside it would stop the whole run."""
    node = make_node()
    gateway = Gateway(node)
    gateway.start()
    return node, gateway, SimNetTransport(gateway)


def _run_beside_a_good_request(node, transport, submit_bad):
    """Send one malformed request and one good one, run the node (it
    must not raise), and return the malformed request's handle."""
    bad = submit_bad()
    good = transport.submit(transfer(nonce=10**6), 1, client_id="good")
    node.run_for(20.0)
    assert good.ok
    assert bad.done
    return bad


@pytest.mark.parametrize("client_id", [7, None, b"alice", ("alice",)])
def test_non_str_client_id_is_an_invalid_request_not_a_crash(client_id):
    node, gateway, transport = _served_over_the_network()
    bad = _run_beside_a_good_request(
        node, transport, lambda: transport.submit(transfer(), 1, client_id=client_id)
    )
    with pytest.raises(InvalidRequest, match="client_id"):
        bad.result()
    assert gateway.queue_depth(1) == 0


@pytest.mark.parametrize("priority", ["urgent", 3, True, 1.0, ["bulk"]])
def test_unknown_priority_is_an_invalid_request_not_a_crash(priority):
    node, gateway, transport = _served_over_the_network()
    bad = _run_beside_a_good_request(
        node, transport,
        lambda: transport.submit(transfer(), 1, client_id="a", priority=priority),
    )
    with pytest.raises(InvalidRequest) as excinfo:
        bad.result()
    assert excinfo.value.code == "invalid_request"
    assert gateway.queue_depth(1) == 0


@pytest.mark.parametrize("chain_id", [True, "1", 1.0, None])
def test_chain_id_must_be_an_int(chain_id):
    gateway = Gateway(make_node())
    handle = gateway.submit(transfer(), chain_id)
    with pytest.raises(UnknownChainError):
        handle.result()
    assert gateway.queue_depth(1) == 0


def _around_the_constructor(tx, **fields):
    """``tx`` with some fields replaced, built without
    :class:`Transaction`'s constructor (which refuses such heads)."""
    values = [tx.sender, tx.public_key, tx.payload, tx.nonce, tx.signature]
    for name, value in fields.items():
        values[("sender", "public_key", "payload", "nonce", "signature").index(name)] = value
    return tuple.__new__(Transaction, (*values, tx.tx_id, {}, tx.signing_bytes()))


@pytest.mark.parametrize(
    "fields",
    [
        {"nonce": [1]},
        {"nonce": 1.0},
        {"nonce": True},
        {"sender": ALICE.address.raw},
        {"public_key": ALICE.public_key.hex()},
        {"signature": "not bytes"},
    ],
)
def test_a_head_the_mempool_cannot_index_is_refused_at_admission(fields):
    node, gateway, transport = _served_over_the_network()
    hostile = _around_the_constructor(transfer(), **fields)
    bad = _run_beside_a_good_request(
        node, transport, lambda: transport.submit(hostile, 1, client_id="a")
    )
    with pytest.raises(InvalidRequest, match="signed types"):
        bad.result()
    assert hostile.tx_id not in node.chain(1).receipts


def test_rejections_carry_machine_readable_dict():
    gateway = Gateway(make_node(), GatewayLimits(max_queue_depth=1))
    gateway.submit(transfer(), 1)
    shed = gateway.submit(transfer(nonce=2), 1)
    payload = shed.error.to_dict()
    assert payload["code"] == "queue_full"
    assert payload["message"]


# ----------------------------------------------------------------------
# Configuration validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_queue_depth": 0},
        {"max_blocked": -1},
        {"batch_size": 0},
        {"flush_interval": 0.0},
        {"rate_limit": -1.0},
        {"rate_burst": 0},
        {"request_timeout": -5.0},
        {"mempool_headroom": 0},
        {"idempotency_retention": -1.0},
        {"max_clients": 0},
    ],
)
def test_gateway_limits_validation(kwargs):
    with pytest.raises(ConfigError):
        GatewayLimits(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"block_interval": 0.0},
        {"block_interval": -5.0},
        {"confirmation_depth": -1},
        {"state_root_lag": -1},
        {"max_block_txs": 0},
        {"validator_count": 0},
        {"gas_price": -1},
        {"executor_workers": -1},
        {"executor_workers": 1},
        {"executor_workers": True},
        {"executor_workers": "2"},
        {"snapshot_retention": -2},
    ],
)
def test_chain_params_validation(kwargs):
    with pytest.raises(ConfigError):
        burrow_params(1, **kwargs)


def test_chain_params_error_names_the_field():
    with pytest.raises(ConfigError, match="block_interval"):
        burrow_params(1, block_interval=-1.0)


# ----------------------------------------------------------------------
# Restart safety
# ----------------------------------------------------------------------


def test_node_restart_does_not_double_block_production():
    node = make_node(block_interval=1.0)
    node.start()
    node.run_for(5.0)
    first_window = node.chain(1).height
    assert first_window > 0
    node.stop()  # cancels the tick loop: no timer stays pending...
    node.start()  # ...and a restart runs exactly one production loop
    node.run_for(5.0)
    assert node.chain(1).height - first_window == first_window


def test_gateway_restart_keeps_single_flush_loop():
    node = make_node()
    gateway = Gateway(node)
    times = []
    inner = gateway.flush
    gateway.flush = lambda: (times.append(node.now), inner())[1]
    gateway.start()
    node.run_for(1.0)
    gateway.stop()
    gateway.start()  # stop() cancelled the old loop; start() arms one
    node.run_for(1.0)
    # Two live loops would flush twice at the same simulated instant.
    assert times and len(times) == len(set(times))


# ----------------------------------------------------------------------
# Client SDK plumbing
# ----------------------------------------------------------------------


def test_client_wait_resolves_through_running_node():
    node = make_node()
    gateway = Gateway(node)
    client = Client(gateway, keypair=ALICE)
    gateway.start()
    receipt = client.wait(client.transfer(BOB.address, 123))
    assert receipt.success
    assert node.chain(1).balance_of(BOB.address) == 10**9 + 123


def test_client_wait_times_out_typed():
    node = make_node()
    gateway = Gateway(node)  # never started: handle can't resolve
    client = Client(gateway, keypair=ALICE)
    handle = client.transfer(BOB.address, 1)
    with pytest.raises(RequestTimeout):
        client.wait(handle, max_time=5.0)
