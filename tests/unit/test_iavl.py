"""Unit tests for the Tendermint-style IAVL tree."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import repro.merkle.iavl as iavl
from repro.crypto.hashing import keccak_memo_info
from repro.merkle.binary import BinaryMerkleTree
from repro.merkle.iavl import EMPTY_ROOT, IAVLTree
from repro.merkle.proof import verify_proof
from tests.merkle_helpers import churn, proof_pin


def key(i):
    return f"k{i:04d}".encode()


def test_empty_root():
    assert IAVLTree().root_hash == EMPTY_ROOT


def test_set_get_overwrite():
    tree = IAVLTree()
    tree.set(b"a", b"1")
    assert tree.get(b"a") == b"1"
    tree.set(b"a", b"2")
    assert tree.get(b"a") == b"2"
    assert tree.get(b"missing") is None


def test_contains_and_len():
    tree = IAVLTree()
    for i in range(10):
        tree.set(key(i), b"v")
    assert key(3) in tree
    assert key(99) not in tree
    assert len(tree) == 10


def test_items_sorted():
    tree = IAVLTree()
    for i in [5, 1, 9, 3, 7]:
        tree.set(key(i), str(i).encode())
    assert [k for k, _ in tree.items()] == [key(i) for i in [1, 3, 5, 7, 9]]


def test_delete():
    tree = IAVLTree()
    for i in range(8):
        tree.set(key(i), b"v")
    assert tree.delete(key(3))
    assert tree.get(key(3)) is None
    assert not tree.delete(key(3))
    assert len(tree) == 7


def test_root_is_deterministic_for_same_op_sequence():
    # Like Tendermint's IAVL, the root hash is history-dependent (tree
    # shape depends on rotation order) but fully deterministic: all
    # replicas applying the same ordered writes commit the same root.
    a = IAVLTree()
    b = IAVLTree()
    for i in [5, 1, 9, 3, 7, 2]:
        a.set(key(i), str(i).encode())
        b.set(key(i), str(i).encode())
    assert a.root_hash == b.root_hash


def test_balanced_height():
    tree = IAVLTree()
    for i in range(256):  # sorted insertion: worst case for a plain BST
        tree.set(key(i), b"v")
    # AVL height bound: 1.44 * log2(n) ~ 11.5 for 256 leaves
    assert tree.height() <= 12


def test_proofs_verify():
    tree = IAVLTree()
    for i in range(64):
        tree.set(key(i), str(i).encode())
    for i in range(64):
        proof = tree.prove(key(i))
        assert proof.value == str(i).encode()
        assert verify_proof(proof, tree.root_hash)


def test_proof_of_missing_key_raises():
    tree = IAVLTree()
    tree.set(b"a", b"1")
    with pytest.raises(KeyError):
        tree.prove(b"b")


def test_proof_invalidated_by_later_write():
    tree = IAVLTree()
    for i in range(16):
        tree.set(key(i), b"v")
    proof = tree.prove(key(0))
    old_root = tree.root_hash
    tree.set(key(5), b"changed")
    assert verify_proof(proof, old_root)
    assert not verify_proof(proof, tree.root_hash)


def test_history_independence_flag():
    assert IAVLTree.history_independent is False


def test_proof_length_logarithmic():
    tree = IAVLTree()
    for i in range(1024):
        tree.set(key(i), b"v")
    assert len(tree.prove(key(512))) <= 15


# ---------------------------------------------------------------------
# Deferred hashing: digests are filled at the first root_hash/prove
# ---------------------------------------------------------------------


CHURN_ROOT = "59ed798c2dc1b1ebc2a653da873d99b39d8427c0323a0ef05f7ea630cbe974f1"


def test_commitment_is_pinned():
    # Values recorded by running this body at the commit before digests
    # were deferred: shape, root and proofs are part of the protocol.
    tree, model = churn(IAVLTree)
    assert dict(tree.items()) == model and len(model) == 418
    root = CHURN_ROOT
    assert tree.root_hash.hex() == root
    assert tree.height() == 10
    keys = sorted(model)
    proof = tree.prove(keys[len(keys) // 2])
    assert len(proof) == 8 and verify_proof(proof, tree.root_hash)
    # Proof bytes as they were before steps became plain pairs: length,
    # size_bytes() (Move2 gas), root, SHA3 of every field concatenated.
    assert [proof_pin(tree.prove(k)) for k in (keys[0], keys[209], keys[-1])] == [
        (9, 313, root, "fce8ecce7f3e266627ae2f4cb0a732c341250fe6cfd2fc30e0c07dbdf864ba23"),
        (8, 274, root, "cdd0a842a0b31a395c5170105a4cbb55f25a18d42b00115077daa3ad693c909f"),
        (9, 304, root, "1da5910e5a4feed53a86d6a9acb9feeded2d77dcd32e7a688cfea5beccacaacc"),
    ]


def test_state_write_workload_root_is_pinned():
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perf_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(workloads)
        world = workloads.StateWrite(2)
        world.measure()
        digests = world.check().digests
    finally:
        del sys.modules[spec.name]
    assert digests == {
        "final_root": "427c25baa255ef821fa08834dedbff8f3f9d12164ca7345523ae15883f08e7dc"
    }


def test_commitment_is_pinned_when_read_mid_history():
    # Root reads every few ops hash nodes that later writes rewrite in
    # place (clearing their digests): the commitment must not notice.
    tree, model = churn(IAVLTree, read_every=7)
    unread, _ = churn(IAVLTree)
    assert dict(tree.items()) == model
    assert tree.root_hash.hex() == CHURN_ROOT and tree.height() == 10
    assert all(tree.prove(k) == unread.prove(k) for k in model)


def test_prove_on_never_hashed_tree_verifies():
    tree = IAVLTree()
    for i in range(33):
        tree.set(key(i), b"v")
    proof = tree.prove(key(17))  # before any root_hash read
    assert verify_proof(proof, tree.root_hash)


def test_set_rejects_a_none_value_and_leaves_the_tree_alone():
    # A None value used to be stored, turning the leaf into a childless
    # inner node that broke the next root_hash and every later set.
    tree, untouched = IAVLTree(), IAVLTree()
    for t in (tree, untouched):
        for i in range(20):
            t.set(key(i), b"v%d" % i)
        t.root_hash
        t.set(key(3), b"rewritten")  # this leaf and its path are un-hashed again
    for k in (key(3), key(7), key(99)):  # un-hashed leaf, hashed leaf, new key
        with pytest.raises(TypeError):
            tree.set(k, None)
    with pytest.raises(TypeError):
        IAVLTree().set(b"k", None)
    assert list(tree.items()) == list(untouched.items())
    assert tree.root_hash == untouched.root_hash
    assert all(tree.prove(k) == untouched.prove(k) for k, _ in untouched.items())


def test_no_write_leaves_a_stale_digest():
    """The ownership rule's safety half: whatever sets, inserts, deletes
    and rotations rewrite in place, a node that still has a digest has
    hashed children and the digest of its current fields — so the next
    root read re-hashes exactly the cleared nodes."""
    tree = IAVLTree()
    for i in range(200):
        tree.set(key(i), b"v%d" % i)
    tree.root_hash

    def assert_fresh():
        stack, hashed = [tree._root], 0
        while stack:
            node = stack.pop()
            if node.value is not None:
                assert node.digest in (None, iavl.merkle_hash_leaf(node.key + node.value))
            else:
                left, right = node.left, node.right
                if node.digest is not None:
                    assert left.digest is not None and right.digest is not None
                    assert node.digest == iavl.merkle_hash_node(left.digest, right.digest)
                assert node.height == max(left.height, right.height) + 1
                stack += (left, right)
            hashed += node.digest is not None
        return hashed

    model = dict(tree.items())
    rng = random.Random(19)
    for step in range(1, 601):
        k = key(rng.randrange(260))
        if rng.random() < 0.3:
            tree.delete(k)
            model.pop(k, None)
        else:
            tree.set(k, b"w%d" % step)  # overwrites below 200, mostly inserts above
            model[k] = b"w%d" % step
        # hashed nodes off the written paths keep their digests
        assert assert_fresh() > 0
        if step % 50 == 0:
            tree.root_hash  # mid-history reads hash what later writes clear
    assert dict(tree.items()) == model


@pytest.fixture
def digests_computed(monkeypatch):
    """Count the tree's digest computations, per hashed input."""
    computed = []
    for name in ("merkle_hash_leaf", "merkle_hash_node"):
        real = getattr(iavl, name)

        def counted(*parts, _real=real):
            computed.append(parts)
            return _real(*parts)

        monkeypatch.setattr(iavl, name, counted)
    return computed


def test_hash_once_per_commit(digests_computed, monkeypatch):
    leaves, writes = 512, 40
    tree = IAVLTree()
    for i in range(leaves):
        tree.set(key(i), b"v")
    tree.root_hash
    assert len(digests_computed) == 2 * leaves - 1  # every node, once
    del digests_computed[:]

    class CountedNode(iavl._Node):
        __slots__ = ()
        made = 0

        def __init__(self, *fields):
            CountedNode.made += 1
            super().__init__(*fields)

    monkeypatch.setattr(iavl, "_Node", CountedNode)
    rng = random.Random(5)
    dirty = [key(rng.randrange(leaves)) for _ in range(writes)]
    for k in dirty:
        tree.set(k, b"w")
    assert digests_computed == []  # set never hashes
    # One tree owns all its nodes: an overwrite rewrites its leaf and
    # clears its path in place, so the block allocates nothing.
    assert CountedNode.made == 0
    # Overwrites keep the shape, so the nodes to re-hash are exactly the
    # nodes on the tree's paths to the dirty keys.
    on_paths, path_nodes = set(), 0
    for k in dirty:
        node = tree._root
        while node is not None:
            on_paths.add(id(node))
            path_nodes += 1
            node = None if node.value is not None else (
                node.left if k < node.key else node.right
            )
    root = tree.root_hash
    assert len(digests_computed) == len(on_paths)
    assert len(set(digests_computed)) == len(on_paths)  # no node hashed twice
    assert len(on_paths) < path_nodes and len(on_paths) < writes * tree.height()
    del digests_computed[:]

    assert tree.root_hash == root
    assert tree.get(dirty[0]) == b"w" and len(list(tree.items())) == leaves
    assert tree.height() == 9
    tree.prove(dirty[0])
    assert digests_computed == []  # nothing left to hash


def test_tree_digests_bypass_the_keccak_memo():
    tree = IAVLTree()
    tree.set(b"warm", b"up")
    before = keccak_memo_info()
    for i in range(50):
        tree.set(key(i), b"fresh-%d" % i)
    tree.root_hash
    tree.prove(key(7))
    BinaryMerkleTree([b"tx-%d" % i for i in range(50)]).root
    assert keccak_memo_info() == before  # no lookup, no entry, no eviction
