"""Unit tests for the journaled world state."""

import pytest

from repro.crypto.hashing import keccak
from repro.crypto.keys import KeyPair
from repro.errors import StateError
from repro.merkle.iavl import IAVLTree
from repro.merkle.proof import verify_proof
from repro.merkle.trie import MerklePatriciaTrie
from repro.statedb.state import (
    ContractLeaf,
    WorldState,
    build_storage_trie,
    compute_storage_root,
)

ALICE = KeyPair.from_name("alice").address
BOB = KeyPair.from_name("bob").address
CONTRACT = KeyPair.from_name("some-contract").address
CODE = b"class Fake: pass"
CODE_HASH = keccak(CODE)


@pytest.fixture(params=[IAVLTree, MerklePatriciaTrie], ids=["iavl", "trie"])
def state(request):
    return WorldState(chain_id=1, tree_factory=request.param)


def test_balances_and_transfers(state):
    state.add_balance(ALICE, 100)
    state.sub_balance(ALICE, 30)
    state.add_balance(BOB, 30)
    assert state.balance_of(ALICE) == 70
    assert state.balance_of(BOB) == 30


def test_insufficient_balance_rejected(state):
    with pytest.raises(StateError):
        state.sub_balance(ALICE, 1)


def test_nonce_bumps(state):
    assert state.bump_nonce(ALICE) == 1
    assert state.bump_nonce(ALICE) == 2


def test_contract_lifecycle(state):
    record = state.create_contract(CONTRACT, CODE_HASH, CODE)
    assert record.location == 1
    assert not state.is_locked(CONTRACT)
    state.storage_set(CONTRACT, b"k", b"v")
    assert state.storage_get(CONTRACT, b"k") == b"v"
    assert state.has_code(CODE_HASH)


def test_duplicate_contract_rejected(state):
    state.create_contract(CONTRACT, CODE_HASH, CODE)
    with pytest.raises(StateError):
        state.create_contract(CONTRACT, CODE_HASH, CODE)


def test_location_and_lock(state):
    state.create_contract(CONTRACT, CODE_HASH, CODE)
    state.lock(CONTRACT, 2, 0)
    assert state.is_locked(CONTRACT)
    assert state.require_contract(CONTRACT).location == 2


def test_move_nonce(state):
    state.create_contract(CONTRACT, CODE_HASH, CODE)
    state.lock(CONTRACT, 2, 0)
    assert state.require_contract(CONTRACT).move_nonce == 1
    state.reactivate(CONTRACT, 2, 0)
    assert state.require_contract(CONTRACT).move_nonce == 2


def test_revert_unwinds_everything(state):
    state.add_balance(ALICE, 100)
    snap = state.snapshot()
    state.sub_balance(ALICE, 50)
    state.add_balance(BOB, 50)
    state.create_contract(CONTRACT, CODE_HASH, CODE)
    state.storage_set(CONTRACT, b"k", b"v")
    state.lock(CONTRACT, 9, 0)
    state.revert(snap)
    assert state.balance_of(ALICE) == 100
    assert state.balance_of(BOB) == 0
    assert state.contract(CONTRACT) is None


def test_revert_restores_storage_values(state):
    state.create_contract(CONTRACT, CODE_HASH, CODE)
    state.storage_set(CONTRACT, b"k", b"old")
    snap = state.snapshot()
    state.storage_set(CONTRACT, b"k", b"new")
    state.storage_set(CONTRACT, b"k2", b"x")
    state.revert(snap)
    assert state.storage_get(CONTRACT, b"k") == b"old"
    assert state.storage_get(CONTRACT, b"k2") == b""


def test_nested_snapshots(state):
    state.add_balance(ALICE, 10)
    outer = state.snapshot()
    state.add_balance(ALICE, 10)
    inner = state.snapshot()
    state.add_balance(ALICE, 10)
    state.revert(inner)
    assert state.balance_of(ALICE) == 20
    state.revert(outer)
    assert state.balance_of(ALICE) == 10


def test_commit_changes_root(state):
    empty = state.commit()
    state.add_balance(ALICE, 5)
    root1 = state.commit()
    assert root1 != empty
    state.add_balance(ALICE, 5)
    root2 = state.commit()
    assert root2 != root1


def test_commit_is_idempotent_without_changes(state):
    state.add_balance(ALICE, 5)
    root = state.commit()
    assert state.commit() == root


def test_account_proof_verifies_against_committed_root(state):
    state.create_contract(CONTRACT, CODE_HASH, CODE)
    state.storage_set(CONTRACT, b"k", b"v")
    state.add_balance(ALICE, 3)
    root = state.commit()
    proof = state.prove_account(CONTRACT)
    assert verify_proof(proof, root)
    # and the proof is stale after further commits
    state.add_balance(ALICE, 1)
    new_root = state.commit()
    assert not verify_proof(proof, new_root) or root == new_root


def test_storage_root_is_canonical(state):
    state.create_contract(CONTRACT, CODE_HASH, CODE)
    state.storage_set(CONTRACT, b"b", b"2")
    state.storage_set(CONTRACT, b"a", b"1")
    direct = state.storage_root(CONTRACT)
    rebuilt = compute_storage_root(
        state._tree_factory, {b"a": b"1", b"b": b"2"}
    )
    assert direct == rebuilt


def test_incremental_commit_matches_canonical_rebuild(state):
    state.create_contract(CONTRACT, CODE_HASH, CODE)
    for i in range(20):
        state.storage_set(CONTRACT, b"k%02d" % i, b"v%02d" % i)
    state.commit()
    # Overwrite a few slots across several blocks: the live trie folds
    # only the dirty slots, yet the root must equal the sorted rebuild.
    for block in range(3):
        state.storage_set(CONTRACT, b"k05", b"b%02d" % block)
        state.storage_set(CONTRACT, b"k17", b"c%02d" % block)
        state.commit()
        expected = compute_storage_root(
            state.tree_factory, state.require_contract(CONTRACT).storage
        )
        assert state.committed_storage_root(CONTRACT) == expected


def test_load_storage_replaces_wholesale_and_reverts(state):
    state.create_contract(CONTRACT, CODE_HASH, CODE)
    state.storage_set(CONTRACT, b"old", b"1")
    state.commit()
    root_before = state.committed_storage_root(CONTRACT)
    snap = state.snapshot()
    tree = build_storage_trie(state.tree_factory, {b"b": b"2", b"a": b"1"})
    state.load_storage(CONTRACT, tree)
    # The tree becomes the live trie as is; the dict is refilled from it.
    assert state._live_storage_trie(CONTRACT) is tree
    assert state.require_contract(CONTRACT).storage == {b"a": b"1", b"b": b"2"}
    assert state.storage_get(CONTRACT, b"old") == b""
    state.revert(snap)
    assert state.storage_get(CONTRACT, b"old") == b"1"
    assert state.storage_get(CONTRACT, b"a") == b""
    assert state.commit() is not None
    assert state.committed_storage_root(CONTRACT) == root_before


def test_wipe_storage_commits_empty_root(state):
    state.create_contract(CONTRACT, CODE_HASH, CODE)
    state.storage_set(CONTRACT, b"k", b"v")
    state.commit()
    state.wipe_storage(CONTRACT)
    state.commit()
    assert state.committed_storage_root(CONTRACT) == compute_storage_root(
        state.tree_factory, {}
    )


def test_prove_storage_verifies_against_committed_root(state):
    state.create_contract(CONTRACT, CODE_HASH, CODE)
    state.storage_set(CONTRACT, b"k1", b"v1")
    state.storage_set(CONTRACT, b"k2", b"v2")
    state.commit()
    proof = state.prove_storage(CONTRACT, b"k1")
    assert proof.value == b"v1"
    assert verify_proof(proof, state.committed_storage_root(CONTRACT))
    with pytest.raises(KeyError):
        state.prove_storage(CONTRACT, b"missing")


def test_commit_reports_the_leaves_it_wrote_while_locked(state):
    # The keys a peer may ask the chain to prove at this commit's root:
    # a Move1, a contract created locked — never a mirror.
    escrow = KeyPair.from_name("escrow").address
    mirror = KeyPair.from_name("mirror").address
    state.create_contract(CONTRACT, CODE_HASH, CODE)
    state.add_balance(ALICE, 5)
    state.commit()
    assert state.locked_leaves == []
    state.lock(CONTRACT, 7, 0)
    state.create_contract(escrow, CODE_HASH, CODE, location=9)
    tree = build_storage_trie(state.tree_factory, {b"k": b"v"})
    state.apply_mirror(mirror, ContractLeaf(0, 5, 0, CODE_HASH, tree.root_hash), CODE, tree)
    state.commit()
    assert state.locked_leaves == sorted([CONTRACT, escrow])
    for address in state.locked_leaves:
        assert verify_proof(state.prove_account(address), state.committed_root)
    state.commit()
    assert state.locked_leaves == []  # nothing written, nothing reported


def test_contract_leaf_commits_location_and_move_nonce(state):
    state.create_contract(CONTRACT, CODE_HASH, CODE)
    root_before = state.commit()
    state.lock(CONTRACT, 7, 0)
    root_moved = state.commit()
    assert root_moved != root_before
    # Back home at move nonce 1: only the nonce differs from root_before.
    state.reactivate(CONTRACT, 1, 0)
    assert state.commit() not in (root_before, root_moved)
