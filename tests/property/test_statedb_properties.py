"""Property-based tests for the journaled world state.

Core invariant: any mutation sequence bracketed by snapshot/revert
leaves the state byte-identical to the snapshot point — including
committed roots — no matter how the operations interleave or nest.
"""

import copy

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import keccak
from repro.crypto.keys import Address
from repro.errors import ContractLocked, StateError
from repro.merkle.iavl import IAVLTree
from repro.statedb.state import WorldState

ADDRESSES = [Address(bytes([i]) * 20) for i in range(1, 7)]
CODE = b"property-code"
CODE_HASH = keccak(CODE)

address_idx = st.integers(min_value=0, max_value=len(ADDRESSES) - 1)

ops = st.lists(
    st.one_of(
        st.tuples(st.just("credit"), address_idx, st.integers(1, 100)),
        st.tuples(st.just("debit"), address_idx, st.integers(1, 100)),
        st.tuples(st.just("create"), address_idx, st.integers(0, 0)),
        st.tuples(st.just("sstore"), address_idx, st.integers(0, 5)),
        st.tuples(st.just("locate"), address_idx, st.integers(2, 4)),
        st.tuples(st.just("reactivate"), address_idx, st.integers(0, 3)),
    ),
    max_size=30,
)


def apply_op(state: WorldState, op) -> None:
    kind, idx, arg = op
    address = ADDRESSES[idx]
    try:
        if kind == "credit":
            state.add_balance(address, arg)
        elif kind == "debit":
            state.sub_balance(address, arg)
        elif kind == "create":
            state.create_contract(address, CODE_HASH, CODE)
        elif kind == "sstore":
            state.storage_set(address, bytes([arg]), b"v" * (arg + 1))
        elif kind == "locate":
            state.lock(address, arg, 0)
        elif kind == "reactivate":
            state.reactivate(address, arg, 0)
    except (StateError, ContractLocked):
        pass  # illegal transitions (debit too much, missing contract,
        # a write to a locked contract) are fine


def observable(state: WorldState):
    return (
        {a: (r.balance, r.nonce) for a, r in state.accounts.items()},
        {
            a: (r.balance, r.location, r.move_nonce, dict(r.storage))
            for a, r in state.contracts.items()
        },
    )


@given(ops, ops)
@settings(max_examples=80, deadline=None)
def test_revert_restores_exact_state(prefix, suffix):
    state = WorldState(chain_id=1, tree_factory=IAVLTree)
    for op in prefix:
        apply_op(state, op)
    snapshot_view = copy.deepcopy(observable(state))
    snap = state.snapshot()
    for op in suffix:
        apply_op(state, op)
    state.revert(snap)
    assert observable(state) == snapshot_view


@given(ops, ops, ops)
@settings(max_examples=50, deadline=None)
def test_nested_reverts_compose(a, b, c):
    state = WorldState(chain_id=1, tree_factory=IAVLTree)
    for op in a:
        apply_op(state, op)
    view_a = copy.deepcopy(observable(state))
    snap_a = state.snapshot()
    for op in b:
        apply_op(state, op)
    view_b = copy.deepcopy(observable(state))
    snap_b = state.snapshot()
    for op in c:
        apply_op(state, op)
    state.revert(snap_b)
    assert observable(state) == view_b
    state.revert(snap_a)
    assert observable(state) == view_a


@given(ops)
@settings(max_examples=60, deadline=None)
def test_replicas_commit_identical_roots(operations):
    replica_a = WorldState(chain_id=1, tree_factory=IAVLTree)
    replica_b = WorldState(chain_id=1, tree_factory=IAVLTree)
    for op in operations:
        apply_op(replica_a, op)
        apply_op(replica_b, op)
    assert replica_a.commit() == replica_b.commit()


@given(ops, ops)
@settings(max_examples=60, deadline=None)
def test_reverted_suffix_does_not_change_committed_root(prefix, suffix):
    """A transaction that aborts must leave no trace in the root."""
    clean = WorldState(chain_id=1, tree_factory=IAVLTree)
    dirty = WorldState(chain_id=1, tree_factory=IAVLTree)
    for op in prefix:
        apply_op(clean, op)
        apply_op(dirty, op)
    snap = dirty.snapshot()
    for op in suffix:
        apply_op(dirty, op)
    dirty.revert(snap)
    assert clean.commit() == dirty.commit()
