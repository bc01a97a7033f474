"""Property-based tests on the authenticated data structures.

Invariants checked:
* trees behave exactly like a dict under arbitrary set/delete sequences;
* every present key yields a proof that verifies against the live root;
* any bit-flip in any field of a proof, a dropped or a repeated step
  breaks verification;
* roots are independent of operation interleaving (state-determined);
* IAVL roots do not depend on when (or whether) earlier roots were read;
* IAVL stays AVL-balanced;
* ``IAVLTree.from_sorted`` builds exactly the tree ascending ``set``
  builds, before and after later writes.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.merkle.binary import BinaryMerkleTree
from repro.merkle.iavl import IAVLTree
from repro.merkle.proof import MembershipProof, verify_proof
from repro.merkle.trie import MerklePatriciaTrie

keys = st.binary(min_size=1, max_size=8)
values = st.binary(min_size=1, max_size=16)

# op: (key, value) = set, (key, None) = delete
ops = st.lists(st.tuples(keys, st.one_of(st.none(), values)), max_size=60)


def apply_ops(tree, operations):
    model = {}
    for key, value in operations:
        if value is None:
            assert tree.delete(key) == (key in model)
            model.pop(key, None)
        else:
            tree.set(key, value)
            model[key] = value
    return model


@given(ops)
@settings(max_examples=60, deadline=None)
def test_iavl_matches_dict_model(operations):
    tree = IAVLTree()
    model = apply_ops(tree, operations)
    assert dict(tree.items()) == model
    for key, value in model.items():
        assert tree.get(key) == value
        proof = tree.prove(key)
        assert proof.value == value
        assert verify_proof(proof, tree.root_hash)


@given(ops)
@settings(max_examples=60, deadline=None)
def test_trie_matches_dict_model(operations):
    trie = MerklePatriciaTrie()
    model = apply_ops(trie, operations)
    assert dict(trie.items()) == model
    for key, value in model.items():
        assert trie.get(key) == value
        proof = trie.prove(key)
        assert verify_proof(proof, trie.root_hash)


@given(st.dictionaries(keys, values, max_size=40), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_trie_root_is_insertion_order_independent(mapping, rnd):
    """The Patricia trie commits to content, not history."""
    items = list(mapping.items())
    shuffled = items[:]
    rnd.shuffle(shuffled)
    a, b = MerklePatriciaTrie(), MerklePatriciaTrie()
    for k, v in items:
        a.set(k, v)
    for k, v in shuffled:
        b.set(k, v)
    assert a.root_hash == b.root_hash


@given(ops)
@settings(max_examples=40, deadline=None)
def test_iavl_root_is_replica_deterministic(operations):
    """Two replicas applying the same op sequence agree on the root
    (IAVL roots are history-dependent but deterministic)."""
    a, b = IAVLTree(), IAVLTree()
    apply_ops(a, operations)
    apply_ops(b, operations)
    assert a.root_hash == b.root_hash


steps = st.sets(st.integers(min_value=0, max_value=59))


@given(ops, steps)
@settings(max_examples=60, deadline=None)
def test_iavl_root_is_independent_of_when_it_is_read(operations, read_steps):
    """Digests are filled lazily and every write clears its path in
    place, so when a root is read decides which writes find hashed
    nodes to clear.  A tree read after every op, one read at drawn
    steps only, and one never read before the end commit the same
    bytes wherever they are compared."""
    eager, mixed, unread = IAVLTree(), IAVLTree(), IAVLTree()
    for i, (key, value) in enumerate(operations):
        for tree in (eager, mixed, unread):
            if value is None:
                tree.delete(key)
            else:
                tree.set(key, value)
        root = eager.root_hash
        if value is not None and i % 3 == 0:
            assert verify_proof(eager.prove(key), root)
        if i in read_steps:
            assert mixed.root_hash == root
    assert mixed.root_hash == unread.root_hash == eager.root_hash
    assert list(unread.items()) == list(eager.items())
    assert all(unread.prove(k) == eager.prove(k) for k, _ in eager.items())


@given(
    st.sampled_from([IAVLTree, MerklePatriciaTrie]),
    st.dictionaries(keys, values, min_size=1, max_size=40),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_tampered_proofs_rejected(factory, mapping, data):
    """One flipped bit anywhere in a proof — key, value, any step's
    prefix or suffix — or one step dropped or repeated breaks it."""
    tree = factory()
    for k, v in mapping.items():
        tree.set(k, v)
    proof = tree.prove(data.draw(st.sampled_from(sorted(mapping))))
    assert verify_proof(proof, tree.root_hash)
    # key, value, prefix0, suffix0, prefix1, suffix1, ...
    flat = [proof.key, proof.value, *itertools.chain.from_iterable(proof.steps)]
    edits = ["flip", "drop", "repeat"] if proof.steps else ["flip"]
    edit = data.draw(st.sampled_from(edits))
    if edit == "flip":
        i = data.draw(st.sampled_from([i for i, blob in enumerate(flat) if blob]))
        bit = data.draw(st.integers(min_value=0, max_value=len(flat[i]) * 8 - 1))
        flipped = bytearray(flat[i])
        flipped[bit // 8] ^= 1 << (bit % 8)
        flat[i] = bytes(flipped)
    else:
        i = 2 + 2 * data.draw(st.integers(min_value=0, max_value=len(proof) - 1))
        flat[i:i + 2] = flat[i:i + 2] * 2 if edit == "repeat" else []
    forged = MembershipProof(
        key=flat[0],
        value=flat[1],
        leaf_prefix=proof.leaf_prefix,
        steps=tuple(zip(flat[2::2], flat[3::2])),
    )
    assert forged != proof
    assert not verify_proof(forged, tree.root_hash)


@given(st.lists(keys, unique=True, min_size=1, max_size=200))
@settings(max_examples=40, deadline=None)
def test_iavl_balance_invariant(insert_keys):
    import math

    tree = IAVLTree()
    for k in insert_keys:
        tree.set(k, b"v")
    n = len(insert_keys)
    # AVL bound: height <= 1.44 * log2(n + 2)
    assert tree.height() <= int(1.45 * math.log2(n + 2)) + 1


def ascending_sets(items):
    """The reference canonical build: ``set`` in ascending key order."""
    tree = IAVLTree()
    for key, value in items:
        tree.set(key, value)
    return tree


def assert_same_tree(built, reference):
    """Same root, height, content and every proof."""
    items = list(reference.items())
    assert list(built.items()) == items
    assert built.root_hash == reference.root_hash
    assert built.height() == reference.height()
    assert [built.prove(key) for key, _ in items] == [reference.prove(key) for key, _ in items]


def test_iavl_sorted_build_matches_ascending_set_for_every_small_n():
    assert IAVLTree.from_sorted([]).root_hash == IAVLTree().root_hash
    for n in range(1, 301):
        items = [(b"k%05d" % i, b"v%d" % i) for i in range(n)]
        assert_same_tree(IAVLTree.from_sorted(items), ascending_sets(items))


@pytest.mark.parametrize("n", [301, 1000, 1536, 2731, 4097])
def test_iavl_sorted_build_matches_ascending_set_at_larger_n(n):
    rnd = random.Random(n)
    mapping = {}
    while len(mapping) < n:
        mapping[rnd.randbytes(rnd.randint(1, 12))] = rnd.randbytes(rnd.randint(1, 8))
    items = sorted(mapping.items())
    assert_same_tree(IAVLTree.from_sorted(items), ascending_sets(items))


@given(st.dictionaries(keys, values, max_size=80), ops)
@settings(max_examples=60, deadline=None)
def test_iavl_sorted_build_stays_equivalent_under_later_writes(mapping, operations):
    """Built nodes are hashed, so later writes clear the paths they
    rewrite: the built tree keeps tracking the reference."""
    items = sorted(mapping.items())
    built, reference = IAVLTree.from_sorted(items), ascending_sets(items)
    for key, value in operations:
        for tree in (built, reference):
            if value is None:
                tree.delete(key)
            else:
                tree.set(key, value)
    assert_same_tree(built, reference)


@given(st.lists(st.binary(min_size=1, max_size=12), min_size=1, max_size=50))
@settings(max_examples=60, deadline=None)
def test_binary_tree_all_leaves_provable(leaves):
    tree = BinaryMerkleTree(leaves)
    for i, leaf in enumerate(leaves):
        proof = tree.prove(i)
        assert proof.value == leaf
        assert verify_proof(proof, tree.root)
