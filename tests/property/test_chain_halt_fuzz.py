"""Property: no transaction halts a chain.

Signed transactions carry hostile field values into ``Chain.submit``: a
Move1 toward a chain id the 8-byte ``L_c`` field cannot hold (or that is
not an int at all), transfer and call values near the 32-byte balance
bound, short random bytecode that runs ``MOVE`` and ``SSTORE`` on
whatever words it pushed, and ``DeployPayload``s of a registered or
unknown code hash (or no hash at all) with hostile constructor
arguments, values and CREATE2 salts.  Execution may refuse any of them,
but only with a failed receipt:

* every block commits;
* every included transaction has a receipt;
* the next, empty block commits too.

Hostile Move2 bundles start from the honest bundle of a real Move1 and
redraw one thing: a field of the proven leaf (the move nonce, balance,
``L_c``, code hash or storage root — the bundle carries them nowhere
else), or the whole leaf as arbitrary bytes; a slot value as an
``int``, a ``str`` or empty; the proof height moved by one or made a
``str``; another contract's key.  Each such Move2 fails as a
Move-protocol error (``MoveError``, ``ProofError`` or
``UnknownRootError``), never as a ``ContractFault``.
"""

import dataclasses

from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro.apps.scoin import SAccount
from repro.apps.store import StateStore
from repro.chain.tx import (
    BytecodeCallPayload,
    CallPayload,
    DeployBytecodePayload,
    DeployPayload,
    Move1Payload,
    Move2Payload,
    TransferPayload,
    sign_transaction,
)
from repro.crypto.hashing import keccak_code
from repro.crypto.keys import create2_address
from repro.merkle.proof import MembershipProof
from repro.statedb.state import decode_contract_leaf
from repro.vm.opcodes import Op
from tests.helpers import (
    ALICE,
    BOB,
    ManualClock,
    StoreContract,
    deploy_store,
    forge_leaf,
    make_chain_pair,
    produce,
    run_tx,
)

BALANCE_BOUND = 2**256
WORDS = st.one_of(
    st.sampled_from([0, 1, 2, 3, 2**64 - 1, 2**64, 2**255, BALANCE_BOUND - 1]),
    st.integers(0, BALANCE_BOUND - 1),
)
AMOUNTS = st.one_of(
    st.sampled_from([0, 1, BALANCE_BOUND - 1, BALANCE_BOUND, BALANCE_BOUND + 1, -1]),
    st.integers(BALANCE_BOUND - 2**20, BALANCE_BOUND + 2**20),
    st.integers(0, 2**41),
)
TARGET_CHAINS = st.one_of(
    st.sampled_from([2**64, 2**64 - 1, -1, 10**30, 0, 1, 2, "2", 2.0, True, False, None, b"\x02"]),
    st.integers(),
)
INSTRUCTIONS = st.one_of(
    WORDS.map(lambda word: bytes([Op.PUSH32]) + word.to_bytes(32, "big")),
    st.integers(0, 255).map(lambda byte: bytes([Op.PUSH1, byte])),
    st.sampled_from([bytes([Op.MOVE]), bytes([Op.SSTORE]), bytes([Op.STOP])]),
    st.binary(min_size=1, max_size=2),
)
BYTECODE = st.lists(INSTRUCTIONS, min_size=1, max_size=6).map(b"".join)
CODE_HASHES = st.one_of(
    st.sampled_from([StoreContract.CODE_HASH, StateStore.CODE_HASH, SAccount.CODE_HASH]),
    st.binary(min_size=32, max_size=32),
    st.sampled_from([b"", "store", None, 0]),
)
DEPLOY_ARGS = st.lists(
    st.one_of(WORDS, AMOUNTS, st.text(max_size=3), st.sampled_from([None, True, b"\x01"])),
    max_size=3,
).map(tuple)
SALTS = st.one_of(
    st.none(),
    st.sampled_from([0, 1, -1, 2**64, 2**256, "1", True, 2.0]),
    st.integers(0, 3),
)


@st.composite
def hostile_transactions(draw, store, chain_id):
    """One or two signed transactions with a hostile field."""
    kind = draw(st.sampled_from(["move1", "transfer", "call", "bytecode", "deploy"]))
    if kind == "move1":
        return [sign_transaction(ALICE, Move1Payload(store, draw(TARGET_CHAINS)))]
    sender = draw(st.sampled_from([ALICE, BOB]))
    if kind == "deploy":
        payload = DeployPayload(draw(CODE_HASHES), draw(DEPLOY_ARGS), draw(AMOUNTS), draw(SALTS))
        return [sign_transaction(sender, payload)]
    if kind == "transfer":
        to = draw(st.sampled_from([ALICE.address, BOB.address, store]))
        return [sign_transaction(sender, TransferPayload(to, draw(AMOUNTS)))]
    if kind == "call":
        args = (draw(WORDS), draw(WORDS))
        return [sign_transaction(sender, CallPayload(store, "put", args, draw(AMOUNTS)))]
    code, salt = draw(BYTECODE), draw(st.integers(0, 3))
    target = create2_address(chain_id, sender.address, salt, keccak_code(code))
    return [
        sign_transaction(sender, DeployBytecodePayload(code, draw(AMOUNTS), salt)),
        sign_transaction(sender, BytecodeCallPayload(target, b"", draw(AMOUNTS))),
    ]


@given(st.data(), st.booleans())
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_no_transaction_halts_the_chain(data, on_ethereum):
    burrow, ethereum = make_chain_pair()
    chain = ethereum if on_ethereum else burrow
    clock = ManualClock()
    chain.fund({ALICE.address: BALANCE_BOUND - 2**40, BOB.address: 10**12})
    store = deploy_store(chain, clock, ALICE)
    batch = data.draw(st.lists(hostile_transactions(store, chain.chain_id), min_size=1, max_size=4))
    txs = [tx for group in batch for tx in group]
    for tx in txs:
        chain.submit(tx)
    produce(chain, clock)
    for tx in txs:
        assert tx.tx_id in chain.receipts
    height = chain.height
    produce(chain, clock)
    assert chain.height == height + 1


LEAF_FIELDS = {
    "balance": st.integers(0, 2**256 - 1),
    "location": st.integers(0, 2**64 - 1),
    "move_nonce": st.integers(0, 2**64 - 1),
    "code_hash": st.binary(min_size=32, max_size=32),
    "storage_root": st.binary(min_size=32, max_size=32),
}
SLOT_VALUES = st.one_of(st.integers(), st.text(max_size=3), st.just(b""))
MOVE2_ERRORS = ("MoveError: ", "ReplayError: ", "ProofError: ", "UnknownRootError: ")


@st.composite
def hostile_bundles(draw, bundle, other):
    """The honest ``bundle`` with one field redrawn."""
    field = draw(st.sampled_from(
        [*LEAF_FIELDS, "leaf", "storage", "proof_height", "contract"]
    ))
    proof = bundle.account_proof
    if field in LEAF_FIELDS:
        honest = getattr(decode_contract_leaf(proof.value), field)
        value = draw(LEAF_FIELDS[field].filter(lambda drawn: drawn != honest))
        return forge_leaf(bundle, **{field: value})
    if field == "leaf":
        leaf = draw(st.binary(max_size=120).filter(lambda drawn: drawn != proof.value))
        forged = MembershipProof(
            key=proof.key, value=leaf, leaf_prefix=proof.leaf_prefix, steps=proof.steps
        )
        return dataclasses.replace(bundle, account_proof=forged)
    if field == "storage":
        key = draw(st.sampled_from(sorted(bundle.storage)))
        return dataclasses.replace(bundle, storage={**bundle.storage, key: draw(SLOT_VALUES)})
    if field == "proof_height":
        height = bundle.proof_height
        return dataclasses.replace(
            bundle, proof_height=draw(st.sampled_from([height + 1, height - 1, str(height)]))
        )
    return dataclasses.replace(bundle, contract=other)


@given(st.data(), st.booleans())
@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_no_hostile_move2_halts_the_chain(data, on_ethereum):
    burrow, ethereum = make_chain_pair()
    source, target = (burrow, ethereum) if on_ethereum else (ethereum, burrow)
    clock = ManualClock()
    source.fund({BOB.address: 10**9})
    store, other = deploy_store(source, clock, ALICE), deploy_store(source, clock, ALICE)
    assert run_tx(source, clock, ALICE, CallPayload(store, "put", (1, 42))).success
    inclusion = run_tx(source, clock, ALICE, Move1Payload(store, target.chain_id)).block_height
    # Every block changes the state, so a moved proof height names
    # another root.
    while source.height <= source.proof_ready_height(inclusion):
        assert run_tx(source, clock, BOB, TransferPayload(ALICE.address, 1)).success
    bundle = source.prove_contract_at(store, inclusion)
    bundles = data.draw(st.lists(hostile_bundles(bundle, other), min_size=1, max_size=4))
    txs = [sign_transaction(BOB, Move2Payload(hostile)) for hostile in bundles]
    for tx in txs:
        target.submit(tx)
    produce(target, clock)
    for tx in txs:
        receipt = target.receipts[tx.tx_id]
        assert not receipt.success
        assert receipt.error.startswith(MOVE2_ERRORS), receipt.error
        event(receipt.error.split(":")[0])
    assert target.state.contract(store) is None
    height = target.height
    produce(target, clock)
    assert target.height == height + 1
