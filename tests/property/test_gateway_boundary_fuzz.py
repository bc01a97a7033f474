"""Property: hostile requests at the serving boundary get typed answers.

Client ids, priorities, chain ids, idempotency keys and transaction
fields are drawn well-formed or hostile, and every request travels
through :class:`~repro.gateway.SimNetTransport`, where admission is a
simulator event.  Whatever was drawn:

* ``node.run`` never raises — one bad request cannot stop the run for
  every other client;
* every handle resolves, and every rejection is a typed
  :class:`~repro.errors.GatewayError`;
* no malformed request is queued: it gets no admission record, no
  transaction id and never reaches the chain.  A well-formed request is
  admitted and confirmed — a validly signed payload the state cannot
  hold (a float amount, a ``bytes`` target) confirms as a failed
  receipt while the chain keeps committing.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    Gateway,
    GatewayError,
    GatewayLimits,
    Node,
    SimNetTransport,
    Transaction,
    TransferPayload,
    burrow_params,
    sign_transaction,
)
from repro.crypto.keys import KeyPair
from repro.errors import ConfigError
from repro.gateway.classes import PriorityClass

USERS = [KeyPair.from_name(f"fuzz-{i}") for i in range(3)]
SERVED_CHAIN = 1

well_formed_client_ids = st.sampled_from(["", "a", "b", "fleet-client-7"])
client_ids = st.one_of(
    well_formed_client_ids,
    st.integers(-3, 3),
    st.none(),
    st.binary(max_size=3),
    st.tuples(st.text(max_size=2)),
    st.floats(allow_nan=True),
)
well_formed_priorities = st.one_of(
    st.none(),
    st.sampled_from(list(PriorityClass)),
    st.sampled_from(["move", "view", "bulk", "BULK", "View", 0, 1, 2]),
)
priorities = st.one_of(
    well_formed_priorities,
    st.text(max_size=5),
    st.integers(-3, 6),
    st.booleans(),
    st.floats(allow_nan=True),
    st.lists(st.sampled_from(["bulk", 1]), max_size=2),
)
chain_ids = st.one_of(
    st.just(SERVED_CHAIN),
    st.integers(-1, 3),
    st.booleans(),
    st.floats(allow_nan=True),
    st.sampled_from(["1", b"\x01", None, (1,)]),
)
idempotency_keys = st.one_of(
    st.none(),
    st.sampled_from(["k1", "k2"]),
    st.integers(0, 2),
    st.binary(max_size=2),
    st.lists(st.integers(0, 1), max_size=2),
)

#: head fields a transfer may be drawn with, each tagged with whether
#: the signed record may carry it
senders = st.one_of(
    st.sampled_from([(kp, True) for kp in USERS]),
    st.sampled_from([(kp.address.raw, False) for kp in USERS]),
)
nonces = st.one_of(
    st.integers(0, 2**70).map(lambda n: (n, True)),
    st.sampled_from([[1], (1,), 1.0, True, "7", None]).map(lambda n: (n, False)),
)
signatures = st.sampled_from(["signed", "unsigned", "str", "bytearray"])
targets = st.one_of(
    st.sampled_from([kp.address for kp in USERS]),
    st.binary(min_size=20, max_size=20),
    st.sampled_from([USERS[0].address.hex, (USERS[0].address.raw,)]),
)
amounts = st.one_of(st.integers(-5, 10**6), st.floats(allow_nan=True), st.text(max_size=2))
transactions = st.one_of(
    st.tuples(senders, targets, amounts, nonces, signatures),
    st.sampled_from(["not a transaction", None, (1, 2, 3)]).map(lambda v: (v,)),
)


def build(drawn):
    """The drawn request body and whether the gateway must take it.

    A head that :class:`Transaction` refuses is built around its
    constructor — the record a hostile peer could hand the gateway."""
    if len(drawn) == 1:
        return drawn[0], False
    (sender, sender_ok), to, amount, (nonce, nonce_ok), signing = drawn
    keypair = sender if sender_ok else USERS[0]
    payload = TransferPayload(to=to, amount=amount)
    tx = sign_transaction(keypair, payload, nonce=nonce if nonce_ok else 0)
    signature = {
        "signed": tx.signature,
        "unsigned": b"",
        "str": tx.signature.hex(),
        "bytearray": bytearray(tx.signature),
    }[signing]
    head = (keypair.address if sender_ok else sender, keypair.public_key)
    fields = (*head, payload, nonce, signature)
    if sender_ok and nonce_ok and signing in ("signed", "unsigned"):
        return Transaction(*fields), signing == "signed"
    forged = tuple.__new__(Transaction, (*fields, tx.tx_id, {}, tx.signing_bytes()))
    return forged, False


def names_a_class(priority) -> bool:
    try:
        PriorityClass.coerce(priority)
    except ConfigError:
        return False
    return True


def routable(client_id, chain_id, key) -> bool:
    """What admission checks before it looks the idempotency key up."""
    return (
        type(client_id) is str
        and type(chain_id) is int
        and chain_id == SERVED_CHAIN
        and (key is None or type(key) is str)
    )


requests = st.tuples(transactions, client_ids, priorities, chain_ids, idempotency_keys)


@given(st.lists(requests, min_size=1, max_size=10))
@settings(
    max_examples=80,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_every_hostile_request_resolves_typed_and_none_is_queued(drawn):
    node = Node(
        burrow_params(SERVED_CHAIN, max_block_txs=50, block_interval=1.0),
        seed=5,
        verify_signatures=True,
    )
    node.chain(SERVED_CHAIN).fund({kp.address: 10**6 for kp in USERS})
    gateway = Gateway(node, GatewayLimits(max_queue_depth=64, flush_interval=0.25))
    # No jitter: requests arrive in the order sent, so the first of two
    # sharing an idempotency key is the one admitted.
    transport = SimNetTransport(gateway, latency=0.05)
    gateway.start()

    sent = []
    for tx_drawn, client_id, priority, chain_id, key in drawn:
        tx, tx_ok = build(tx_drawn)
        handle = transport.submit(
            tx, chain_id, client_id=client_id, idempotency_key=key, priority=priority
        )
        sent.append((tx, tx_ok, client_id, priority, chain_id, key, handle))
    node.run_for(30.0)  # never raises

    chain = node.chain(SERVED_CHAIN)
    first_by_key = {}
    admitted = 0
    for tx, tx_ok, client_id, priority, chain_id, key, handle in sent:
        assert handle.done
        if routable(client_id, chain_id, key) and (client_id, key) in first_by_key:
            # An idempotent retry follows the first admission under its
            # key, whatever its own body.
            original = first_by_key[(client_id, key)]
            assert handle.tx_id == original.tx_id and handle.receipt is original.receipt
            continue
        if not (
            tx_ok
            and routable(client_id, chain_id, key)
            and (priority is None or names_a_class(priority))
        ):
            assert isinstance(handle.error, GatewayError), handle.error
            assert handle.admitted_at is None and handle.tx_id is None
            continue
        if key is not None:
            first_by_key[(client_id, key)] = handle
        admitted += 1
        assert handle.error is None, handle.error
        assert handle.receipt is not None and handle.tx_id == tx.tx_id
        assert chain.receipts[tx.tx_id] is handle.receipt
    assert sum(1 for record in gateway.admission_log if record[1] == "admit") == admitted
    assert gateway.queue_depth(SERVED_CHAIN) == 0
    assert chain.height >= 25  # it kept committing past every failed receipt
    chain.verify_chain()


def test_the_drawn_domain_covers_every_kind_of_refusal():
    # One request of each refused kind, each answered with its own code.
    node = Node(burrow_params(SERVED_CHAIN, block_interval=1.0), seed=1)
    gateway = Gateway(node)
    transport = SimNetTransport(gateway)
    good = sign_transaction(USERS[0], TransferPayload(USERS[1].address, 1))
    unsigned = Transaction(good.sender, good.public_key, good.payload, good.nonce)
    forged = tuple.__new__(Transaction, (*good[:3], [1], *good[4:]))
    cases = [
        (good, {"client_id": 7}, "invalid_request"),
        (good, {"priority": "urgent"}, "invalid_request"),
        (good, {"idempotency_key": 5}, "invalid_request"),
        (good, {"chain_id": True}, "unknown_chain"),
        (unsigned, {}, "invalid_request"),
        (forged, {}, "invalid_request"),
        ("not a transaction", {}, "invalid_request"),
    ]
    handles = []
    for tx, overrides, code in cases:
        kwargs = {"chain_id": SERVED_CHAIN, **overrides}
        handles.append((transport.submit(tx, kwargs.pop("chain_id"), **kwargs), code))
    node.run_for(1.0)
    assert [h.error.code for h, _ in handles] == [code for _, code in handles]
    assert not gateway.admission_log
