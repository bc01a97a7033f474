"""Unit tests for transactions, canonical encoding and the mempool."""

import copy
import gc
import pickle

import pytest

from repro.chain.chain import Chain
from repro.chain.mempool import Mempool
from repro.chain.params import burrow_params
from repro.chain.tx import (
    CallPayload,
    DeployPayload,
    Move1Payload,
    Transaction,
    TransferPayload,
    canonical_encode,
    sign_transaction,
)
from repro.crypto.keys import Address, KeyPair

ALICE = KeyPair.from_name("alice")
BOB = KeyPair.from_name("bob")
TARGET = Address(b"\x01" * 20)


def test_canonical_encode_is_injective_on_basic_shapes():
    samples = [
        1, "1", b"1", True, None, (1, 2), ((1,), 2), {"a": 1}, Address(b"\x02" * 20),
        1.5, (1, (2,)),
    ]
    encoded = [canonical_encode(s) for s in samples]
    assert len(set(encoded)) == len(encoded)


def test_canonical_encode_dict_order_insensitive():
    assert canonical_encode({"a": 1, "b": 2}) == canonical_encode({"b": 2, "a": 1})


def test_canonical_encode_rejects_unknown():
    with pytest.raises(TypeError):
        canonical_encode(object())


def test_sign_and_verify_roundtrip():
    tx = sign_transaction(ALICE, TransferPayload(to=TARGET, amount=5))
    assert tx.verify()
    assert tx.sender == ALICE.address
    assert tx.tx_id


def _refused_by_executor(tx):
    """Run ``tx`` on a chain that funded its sender; its receipt."""
    chain = Chain(burrow_params(1))
    chain.fund({tx.sender: 10**6})
    assert chain.submit(tx)
    chain.produce_block(5.0)
    receipt = chain.receipts[tx.tx_id]
    assert not receipt.success
    assert "signature" in receipt.error
    return receipt


def test_tampered_payload_fails_verification():
    tx = sign_transaction(ALICE, TransferPayload(to=TARGET, amount=5))
    tampered = Transaction(
        tx.sender, tx.public_key, TransferPayload(to=TARGET, amount=500), tx.nonce,
        tx.signature,
    )
    assert tampered.signature == tx.signature
    assert tampered.tx_id != tx.tx_id
    assert not tampered.verify()
    _refused_by_executor(tampered)


def test_wrong_sender_fails_verification():
    tx = sign_transaction(ALICE, TransferPayload(to=TARGET, amount=5))
    forged = Transaction(BOB.address, tx.public_key, tx.payload, tx.nonce, tx.signature)
    assert not forged.verify()
    _refused_by_executor(forged)


def test_rebuilt_transaction_is_the_signed_one():
    # The same fields and signature rebuild the same record.
    tx = sign_transaction(ALICE, TransferPayload(to=TARGET, amount=5))
    again = Transaction(tx.sender, tx.public_key, tx.payload, tx.nonce, tx.signature)
    assert again == tx
    assert again.tx_id == tx.tx_id
    assert again.signing_bytes() == tx.signing_bytes()
    assert again.verify()


def test_transaction_fields_are_immutable_meta_is_not():
    tx = sign_transaction(ALICE, TransferPayload(to=TARGET, amount=5))
    replacements = {
        "sender": BOB.address,
        "payload": TransferPayload(to=TARGET, amount=500),
        "nonce": tx.nonce + 1,
        "signature": b"\x00" * 32,
        "tx_id": "0" * 64,
        "public_key": BOB.public_key,
        "meta": {},
    }
    for name, value in replacements.items():
        with pytest.raises(AttributeError):
            setattr(tx, name, value)
    with pytest.raises(AttributeError):
        tx.extra = 1
    tx.meta["gas_category"] = "complete"
    assert tx.meta == {"gas_category": "complete"}
    assert tx.verify()


def test_signed_transaction_holds_no_cache():
    tx = sign_transaction(ALICE, TransferPayload(to=TARGET, amount=5))

    def referents():
        return [ref for ref in gc.get_referents(tx) if not isinstance(ref, type)]

    before = referents()
    # exact types: the sender is an Address, itself a 1-tuple record
    assert [ref for ref in before if type(ref) in (tuple, list, set)] == []
    assert [ref for ref in before if isinstance(ref, dict)] == [tx.meta]
    assert tx.verify() and tx.signing_bytes() and tx.verify()
    after = referents()
    assert len(after) == len(before)
    assert all(a is b for a, b in zip(after, before))


@pytest.mark.parametrize("nonce", [[1], (1,), 1.0, True, "1"])
def test_signing_refuses_a_nonce_the_mempool_could_not_index(nonce):
    # A list nonce used to be signed and admitted, then crashed the
    # mempool's sender index inside a flush.
    with pytest.raises(TypeError, match="nonce"):
        sign_transaction(ALICE, TransferPayload(to=TARGET, amount=5), nonce=nonce)


@pytest.mark.parametrize(
    "field, value",
    [
        ("sender", ALICE.address.raw),
        ("sender", (ALICE.address.raw,)),
        ("public_key", ALICE.public_key.hex()),
        ("public_key", bytearray(ALICE.public_key)),
        ("nonce", [1]),
        ("nonce", False),
    ],
    ids=["bytes-sender", "1-tuple-sender", "hex-key", "bytearray-key", "list-nonce", "bool-nonce"],
)
def test_transaction_head_must_have_the_signed_types(field, value):
    tx = sign_transaction(ALICE, TransferPayload(to=TARGET, amount=5))
    fields = {
        "sender": tx.sender, "public_key": tx.public_key, "payload": tx.payload,
        "nonce": tx.nonce, "signature": tx.signature, field: value,
    }
    with pytest.raises(TypeError, match=field):
        Transaction(**fields)


def test_payload_records_equal_their_fields_and_keep_their_kind_apart():
    transfer = TransferPayload(to=TARGET, amount=5)
    assert transfer == (TARGET, 5) and hash(transfer) == hash((TARGET, 5))
    assert (transfer.to, transfer.amount) == (TARGET, 5)
    assert transfer != Move1Payload(contract=TARGET, target_chain=5)
    call = CallPayload(TARGET, "m")
    assert call == CallPayload(target=TARGET, method="m", args=(), value=0)
    assert (call.target, call.method, call.args, call.value) == (TARGET, "m", (), 0)
    with pytest.raises(AttributeError):
        transfer.amount = 6
    assert copy.deepcopy(call) == call and type(copy.deepcopy(call)) is CallPayload
    assert pickle.loads(pickle.dumps(transfer)) == transfer


def test_split_and_merged_strings_do_not_collide():
    # Without length prefixes both encoded as b"l(sasssb)".
    assert canonical_encode(("as", "sb")) != canonical_encode(("a", "s", "b"))
    # ... and b"l(yayyb)".
    assert canonical_encode((b"a", b"yb")) != canonical_encode((b"ayyb",))


def test_call_payloads_with_regrouped_args_are_distinct_transactions():
    a = sign_transaction(ALICE, CallPayload(TARGET, "m", args=("as", "sb")), nonce=7)
    b = sign_transaction(ALICE, CallPayload(TARGET, "m", args=("a", "s", "b")), nonce=7)
    assert a.signing_bytes() != b.signing_bytes()
    assert a.signature != b.signature
    assert a.tx_id != b.tx_id


def test_identical_payloads_get_distinct_ids():
    a = sign_transaction(ALICE, TransferPayload(to=TARGET, amount=5))
    b = sign_transaction(ALICE, TransferPayload(to=TARGET, amount=5))
    assert a.tx_id != b.tx_id  # process-unique nonce differentiates


def test_all_payload_kinds_signable():
    for payload in [
        TransferPayload(to=TARGET, amount=1),
        DeployPayload(code_hash=b"\x00" * 32, args=(1, TARGET), salt=4),
        CallPayload(target=TARGET, method="m", args=(b"x",), value=2),
        Move1Payload(contract=TARGET, target_chain=9),
    ]:
        assert sign_transaction(ALICE, payload).verify()


def test_mempool_fifo_and_dedup():
    pool = Mempool()
    txs = [sign_transaction(ALICE, TransferPayload(to=TARGET, amount=i)) for i in range(5)]
    for tx in txs:
        assert pool.add(tx)
    assert not pool.add(txs[0])  # duplicate
    assert len(pool) == 5
    taken = pool.take(3)
    assert [t.tx_id for t in taken] == [t.tx_id for t in txs[:3]]
    assert len(pool) == 2


def test_mempool_take_more_than_available():
    pool = Mempool()
    tx = sign_transaction(ALICE, TransferPayload(to=TARGET, amount=1))
    pool.add(tx)
    assert len(pool.take(10)) == 1
    assert pool.take(10) == []


class _IterationCountingDict(dict):
    """A dict that counts every whole-structure traversal.

    Membership tests, gets and single-key inserts stay uncounted — the
    point is to prove mempool admission never *scans* the pool.
    """

    def __init__(self):
        super().__init__()
        self.traversals = 0

    def __iter__(self):
        self.traversals += 1
        return super().__iter__()

    def keys(self):
        self.traversals += 1
        return super().keys()

    def values(self):
        self.traversals += 1
        return super().values()

    def items(self):
        self.traversals += 1
        return super().items()


def test_mempool_admission_never_scans_at_depth_10k():
    """The admission-path satellite: with 10 000 transactions already
    pending, admitting and rejecting must not traverse the pool —
    O(1) dict work only, which is better than the O(log n)
    requirement."""
    pool = Mempool()
    spy = _IterationCountingDict()
    pool._pending = spy  # OrderedDict-compatible for add/`in`
    senders = [KeyPair.from_name(f"mp-{i % 50}") for i in range(50)]
    txs = [
        sign_transaction(senders[i % 50], TransferPayload(to=TARGET, amount=i))
        for i in range(10_000)
    ]
    for tx in txs:
        assert pool.add(tx)
    assert len(pool) == 10_000
    spy.traversals = 0
    probe = sign_transaction(ALICE, TransferPayload(to=TARGET, amount=1))
    assert pool.add(probe)            # admission at depth 10k
    assert not pool.add(probe)        # duplicate rejection at depth 10k
    assert spy.traversals == 0, "admission path iterated over the pool"
