"""Unit tests for the hexary Merkle Patricia trie."""

import pytest

from repro.merkle.proof import verify_proof
from repro.merkle.trie import EMPTY_ROOT, MerklePatriciaTrie
from tests.merkle_helpers import churn, proof_pin


def test_empty_root():
    assert MerklePatriciaTrie().root_hash == EMPTY_ROOT


def test_set_get_overwrite():
    trie = MerklePatriciaTrie()
    trie.set(b"dog", b"puppy")
    trie.set(b"doge", b"coin")
    trie.set(b"do", b"verb")
    assert trie.get(b"dog") == b"puppy"
    assert trie.get(b"doge") == b"coin"
    assert trie.get(b"do") == b"verb"
    assert trie.get(b"d") is None
    trie.set(b"dog", b"adult")
    assert trie.get(b"dog") == b"adult"


def test_prefix_keys_coexist():
    trie = MerklePatriciaTrie()
    trie.set(b"a", b"1")
    trie.set(b"ab", b"2")
    trie.set(b"abc", b"3")
    assert trie.get(b"a") == b"1"
    assert trie.get(b"ab") == b"2"
    assert trie.get(b"abc") == b"3"


def test_root_order_independent():
    import random

    keys = [f"key-{i}".encode() for i in range(60)]
    a, b = MerklePatriciaTrie(), MerklePatriciaTrie()
    for k in keys:
        a.set(k, k + b"!")
    shuffled = keys[:]
    random.Random(7).shuffle(shuffled)
    for k in shuffled:
        b.set(k, k + b"!")
    assert a.root_hash == b.root_hash


def test_delete_restores_previous_root():
    trie = MerklePatriciaTrie()
    trie.set(b"alpha", b"1")
    trie.set(b"beta", b"2")
    root_before = trie.root_hash
    trie.set(b"gamma", b"3")
    assert trie.delete(b"gamma")
    assert trie.root_hash == root_before
    assert not trie.delete(b"gamma")


def test_delete_collapses_branches():
    trie = MerklePatriciaTrie()
    trie.set(b"a", b"1")
    root_single = trie.root_hash
    trie.set(b"b", b"2")
    trie.set(b"c", b"3")
    assert trie.delete(b"b")
    assert trie.delete(b"c")
    assert trie.root_hash == root_single


def test_items_and_len():
    trie = MerklePatriciaTrie()
    entries = {f"k{i}".encode(): f"v{i}".encode() for i in range(20)}
    for k, v in entries.items():
        trie.set(k, v)
    assert dict(trie.items()) == entries
    assert len(trie) == 20


def test_proofs_verify_for_all_keys():
    trie = MerklePatriciaTrie()
    for i in range(50):
        trie.set(f"key-{i}".encode(), f"value-{i}".encode())
    for i in range(50):
        proof = trie.prove(f"key-{i}".encode())
        assert proof.value == f"value-{i}".encode()
        assert verify_proof(proof, trie.root_hash)


def test_proof_for_branch_terminating_key():
    trie = MerklePatriciaTrie()
    trie.set(b"a", b"1")
    trie.set(b"ab", b"2")  # b"a" terminates at a branch value slot
    proof = trie.prove(b"a")
    assert verify_proof(proof, trie.root_hash)


def test_proof_missing_key_raises():
    trie = MerklePatriciaTrie()
    trie.set(b"a", b"1")
    with pytest.raises(KeyError):
        trie.prove(b"zz")
    with pytest.raises(KeyError):
        MerklePatriciaTrie().prove(b"a")


def test_proof_stale_after_write():
    trie = MerklePatriciaTrie()
    for i in range(16):
        trie.set(f"k{i}".encode(), b"v")
    proof = trie.prove(b"k0")
    old_root = trie.root_hash
    trie.set(b"k7", b"changed")
    assert verify_proof(proof, old_root)
    assert not verify_proof(proof, trie.root_hash)


def test_fixed_width_keys_like_addresses():
    trie = MerklePatriciaTrie()
    keys = [bytes([i]) * 20 for i in range(40)]
    for k in keys:
        trie.set(k, b"account")
    for k in keys:
        assert verify_proof(trie.prove(k), trie.root_hash)


def test_history_independence_flag():
    assert MerklePatriciaTrie.history_independent is True


def test_proof_bytes_are_pinned():
    # Recorded before steps became plain pairs (see test_iavl.py).
    trie, model = churn(MerklePatriciaTrie)
    assert dict(trie.items()) == model and len(model) == 418
    root = "4f3de5b8507da79d09fe7db278eb02ab3ecb56a414fb901df600aad3c47e7590"
    assert trie.root_hash.hex() == root
    keys = sorted(model)
    assert [proof_pin(trie.prove(k)) for k in (keys[0], keys[209], keys[-1])] == [
        (6, 1565, root, "7ca5ee7473f0efc1cb8e8a05193319fd318cc6a6fcad00c9ea321a1aeeae6753"),
        (6, 1559, root, "e4579e41fdf9ee6570dae3fe54f7ada6240f49cc0c3716863be738138e327030"),
        (6, 1556, root, "67a774dd3f9d03758793af3caf2315c3a27780add7349260c01a098be297b6f0"),
    ]
