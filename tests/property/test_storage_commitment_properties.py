"""Property tests for the incremental storage commitment.

The consensus-critical invariant of the incremental commit path
(`WorldState._commit_storage`): whatever interleaving of writes,
deletes, transaction snapshot/reverts, bulk loads and block commits a
contract's storage goes through, the committed storage root is
**bit-identical** to the canonical sorted rebuild
(`compute_storage_root`) that every Move2 verifier performs — for both
tree flavours — and slot proofs extracted from the live trie verify
against that root.  The commit path learns whether a block changed a
contract's key set from a flag `storage_set` keeps, never from probing
the trie: a block of pure overwrites builds nothing and looks nothing up.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import keccak
from repro.crypto.keys import Address
from repro.merkle.iavl import IAVLTree
from repro.merkle.proof import verify_proof
from repro.merkle.trie import MerklePatriciaTrie
from repro.statedb import state as state_module
from repro.statedb.state import WorldState, build_storage_trie, compute_storage_root

CONTRACT = Address(b"\x11" * 20)
CODE = b"commitment-property-code"
CODE_HASH = keccak(CODE)

KEYS = [bytes([k]) * 2 for k in range(1, 9)]

# Interleavings: slot writes/deletes, transaction-level snapshot/revert
# pairs, block commits, and the Move2-style bulk load.
ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("set"),
            st.integers(0, len(KEYS) - 1),
            st.binary(min_size=1, max_size=8),
        ),
        st.tuples(st.just("delete"), st.integers(0, len(KEYS) - 1), st.none()),
        st.tuples(st.just("snapshot"), st.none(), st.none()),
        st.tuples(st.just("revert"), st.none(), st.none()),
        st.tuples(st.just("commit"), st.none(), st.none()),
        st.tuples(
            st.just("load"),
            st.none(),
            st.dictionaries(
                st.sampled_from(KEYS), st.binary(min_size=1, max_size=4), max_size=6
            ),
        ),
    ),
    max_size=40,
)

FLAVOURS = [
    pytest.param(IAVLTree, id="iavl"),
    pytest.param(MerklePatriciaTrie, id="trie"),
]


def drive(state: WorldState, operations) -> None:
    snaps = []
    for kind, idx, payload in operations:
        if kind == "set":
            state.storage_set(CONTRACT, KEYS[idx], payload)
        elif kind == "delete":
            state.storage_set(CONTRACT, KEYS[idx], b"")
        elif kind == "snapshot":
            snaps.append(state.snapshot())
        elif kind == "revert":
            if snaps:
                state.revert(snaps.pop())
        elif kind == "commit":
            state.commit()
            snaps.clear()  # commit finalizes the block: journal is gone
        elif kind == "load":
            tree = build_storage_trie(state.tree_factory, payload)
            state.load_storage(CONTRACT, tree)


def assert_incremental_matches_canonical(state: WorldState, factory) -> None:
    state.commit()
    record = state.require_contract(CONTRACT)
    canonical = compute_storage_root(factory, record.storage)
    assert state.committed_storage_root(CONTRACT) == canonical
    # Slot proofs extracted from the live trie verify against the root
    # every Move2/attestation verifier would reconstruct.
    for key, value in record.storage.items():
        proof = state.prove_storage(CONTRACT, key)
        assert proof.value == value
        assert verify_proof(proof, canonical)


@pytest.mark.parametrize("factory", FLAVOURS)
@given(operations=ops)
@settings(max_examples=80, deadline=None)
def test_incremental_root_matches_canonical_rebuild(factory, operations):
    state = WorldState(chain_id=1, tree_factory=factory)
    state.create_contract(CONTRACT, CODE_HASH, CODE)
    state.commit()
    drive(state, operations)
    assert_incremental_matches_canonical(state, factory)


@pytest.mark.parametrize("factory", FLAVOURS)
@given(operations=ops, more=ops)
@settings(max_examples=40, deadline=None)
def test_equivalence_survives_multiple_blocks(factory, operations, more):
    """The live trie must stay canonical across commits, not just one."""
    state = WorldState(chain_id=1, tree_factory=factory)
    state.create_contract(CONTRACT, CODE_HASH, CODE)
    drive(state, operations)
    assert_incremental_matches_canonical(state, factory)
    drive(state, more)
    assert_incremental_matches_canonical(state, factory)


# One block: writes that add a key, delete one, delete then re-add one,
# rewrite a slot with the value it already holds, and writes undone by a
# transaction revert — the cases the commit path's key-set flag must
# classify (or safely over-approximate).
block_ops = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(0, len(KEYS) - 1), st.binary(min_size=1, max_size=4)),
        st.tuples(st.just("delete"), st.integers(0, len(KEYS) - 1), st.none()),
        st.tuples(st.just("readd"), st.integers(0, len(KEYS) - 1), st.binary(min_size=1, max_size=4)),
        st.tuples(st.just("same"), st.integers(0, len(KEYS) - 1), st.none()),
        st.tuples(st.just("reverted"), st.integers(0, len(KEYS) - 1), st.binary(min_size=1, max_size=4)),
    ),
    max_size=12,
)


def drive_block(state: WorldState, operations) -> None:
    for kind, idx, value in operations:
        key = KEYS[idx]
        if kind == "add":
            state.storage_set(CONTRACT, key, value)
        elif kind == "delete":
            state.storage_set(CONTRACT, key, b"")
        elif kind == "readd":
            state.storage_set(CONTRACT, key, b"")
            state.storage_set(CONTRACT, key, value)
        elif kind == "same":
            state.storage_set(CONTRACT, key, state.storage_get(CONTRACT, key))
        else:  # reverted: the write and a delete of its neighbour, undone
            snap = state.snapshot()
            state.storage_set(CONTRACT, key, value)
            state.storage_set(CONTRACT, KEYS[(idx + 1) % len(KEYS)], b"")
            state.revert(snap)


@pytest.mark.parametrize("factory", FLAVOURS)
@given(blocks=st.lists(block_ops, min_size=1, max_size=6))
@settings(max_examples=80, deadline=None)
def test_every_block_commits_the_canonical_root(factory, blocks):
    state = WorldState(chain_id=1, tree_factory=factory)
    state.create_contract(CONTRACT, CODE_HASH, CODE)
    state.commit()
    for operations in blocks:
        drive_block(state, operations)
        state.drop_journal()  # the transaction ends
        assert_incremental_matches_canonical(state, factory)


@pytest.mark.parametrize("factory", FLAVOURS)
def test_overwrite_block_commit_builds_no_trie_and_looks_nothing_up(factory, monkeypatch):
    state = WorldState(chain_id=1, tree_factory=factory)
    state.create_contract(CONTRACT, CODE_HASH, CODE)
    base = build_storage_trie(factory, {key: b"base" for key in KEYS})
    state.load_storage(CONTRACT, base)
    state.commit()
    for n, key in enumerate(KEYS):
        state.storage_set(CONTRACT, key, b"rewritten-%d" % n)
    state.storage_set(CONTRACT, KEYS[0], b"base")  # back to the committed value
    calls = []
    monkeypatch.setattr(
        state_module, "build_storage_trie", lambda *args: calls.append("build")
    )
    monkeypatch.setattr(factory, "get", lambda tree, key: calls.append("get"))
    monkeypatch.setattr(factory, "__contains__", lambda tree, key: calls.append("in"))
    state.commit()
    monkeypatch.undo()
    assert calls == []
    assert_incremental_matches_canonical(state, factory)


@pytest.mark.parametrize("factory", FLAVOURS)
@given(
    base=st.dictionaries(
        st.sampled_from(KEYS), st.binary(min_size=1, max_size=4), max_size=8
    ),
    overwrites=st.lists(
        st.tuples(st.sampled_from(KEYS), st.binary(min_size=1, max_size=4)),
        max_size=12,
    ),
)
@settings(max_examples=40, deadline=None)
def test_overwrite_only_blocks_never_refold(factory, base, overwrites):
    """Value overwrites of committed slots — the hot path the O(dirty)
    commit targets — keep the incremental root canonical."""
    state = WorldState(chain_id=1, tree_factory=factory)
    state.create_contract(CONTRACT, CODE_HASH, CODE)
    state.load_storage(CONTRACT, build_storage_trie(factory, base))
    state.commit()
    for key, value in overwrites:
        if state.storage_get(CONTRACT, key):
            state.storage_set(CONTRACT, key, value)
    assert_incremental_matches_canonical(state, factory)
