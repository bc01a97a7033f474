"""Each Move2 refusal has one receipt error type, pinned here.

A bundle from the target chain itself, or one whose proven ``L_c``
names another chain, is a ``MoveError``; a stale move nonce is a
``ReplayError``, a ``MoveError`` subclass.  A root that fails ``VS`` (an
unconfirmed root, a tampered leaf) is an ``UnknownRootError`` and any
other ``VP`` failure (a tampered slot) a ``ProofError``.  Those two are
``TransactionAborted`` but *not* ``MoveError`` subclasses, because
mirror sync and remote-state proofs refuse proofs outside any Move: an
``except MoveError`` does not catch them.
"""

import dataclasses

import pytest

from repro.chain.tx import CallPayload, Move1Payload, Move2Payload
from repro.errors import MoveError, ProofError, ReplayError, TransactionAborted, UnknownRootError
from tests.helpers import (
    ALICE,
    BOB,
    ManualClock,
    deploy_store,
    forge_leaf,
    make_chain_pair,
    produce,
    run_tx,
)


def moved_store(target_chain=None, confirmed=True):
    """A Burrow store locked toward ``target_chain`` (default: the
    Ethereum peer) and the bundle proving its locked state."""
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    store = deploy_store(burrow, clock, ALICE)
    assert run_tx(burrow, clock, ALICE, CallPayload(store, "put", (1, 42))).success
    target = ethereum.chain_id if target_chain is None else target_chain
    inclusion = run_tx(burrow, clock, ALICE, Move1Payload(store, target)).block_height
    while confirmed and burrow.height < burrow.proof_ready_height(inclusion):
        produce(burrow, clock)
    return burrow, ethereum, clock, burrow.prove_contract_at(store, inclusion)


def tampered_slot(bundle):
    key = next(iter(bundle.storage))
    return dataclasses.replace(bundle, storage={**bundle.storage, key: b"\x01" * 32})


def refusal(case):
    """The chain a refused Move2 runs on, and its receipt."""
    if case == "wrong_target":
        burrow, ethereum, clock, bundle = moved_store(target_chain=99)
        return run_tx(ethereum, clock, BOB, Move2Payload(bundle))
    if case == "same_chain":
        burrow, _ethereum, clock, bundle = moved_store()
        return run_tx(burrow, clock, BOB, Move2Payload(bundle))
    if case == "unconfirmed_root":
        _burrow, ethereum, clock, bundle = moved_store(confirmed=False)
        return run_tx(ethereum, clock, BOB, Move2Payload(bundle))
    _burrow, ethereum, clock, bundle = moved_store()
    if case == "tampered_leaf":
        return run_tx(ethereum, clock, BOB, Move2Payload(forge_leaf(bundle, balance=1)))
    if case == "tampered_slot":
        return run_tx(ethereum, clock, BOB, Move2Payload(tampered_slot(bundle)))
    assert case == "stale_nonce"
    assert run_tx(ethereum, clock, BOB, Move2Payload(bundle)).success
    return run_tx(ethereum, clock, BOB, Move2Payload(bundle))


@pytest.mark.parametrize(
    "case, error",
    [
        ("wrong_target", MoveError),
        ("same_chain", MoveError),
        ("unconfirmed_root", UnknownRootError),
        ("tampered_leaf", UnknownRootError),
        ("tampered_slot", ProofError),
        ("stale_nonce", ReplayError),
    ],
)
def test_each_move2_refusal_has_its_receipt_type(case, error):
    receipt = refusal(case)
    assert not receipt.success
    assert receipt.error.split(":")[0] == error.__name__, receipt.error


def test_proof_refusals_are_not_move_errors():
    for error in (ProofError, UnknownRootError):
        assert issubclass(error, TransactionAborted)
        assert not issubclass(error, MoveError)
    assert issubclass(ReplayError, MoveError)
