"""Unit tests for the binary Merkle tree and the {v} -> m interface."""

import pytest

from repro.merkle.binary import EMPTY_ROOT, BinaryMerkleTree
from repro.merkle.proof import MembershipProof, verify_proof
from tests.merkle_helpers import proof_pin


def leaves(n):
    return [f"tx-{i}".encode() for i in range(n)]


def test_empty_tree_has_sentinel_root():
    assert BinaryMerkleTree([]).root == EMPTY_ROOT


def test_single_leaf():
    tree = BinaryMerkleTree([b"only"])
    proof = tree.prove(0)
    assert proof.value == b"only"
    assert len(proof) == 0
    assert verify_proof(proof, tree.root)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 8, 9, 16, 33])
def test_all_leaves_provable(n):
    tree = BinaryMerkleTree(leaves(n))
    for i in range(n):
        proof = tree.prove(i)
        assert proof.value == f"tx-{i}".encode()
        assert verify_proof(proof, tree.root)


def test_proof_fails_against_wrong_root():
    t1 = BinaryMerkleTree(leaves(5))
    t2 = BinaryMerkleTree(leaves(6))
    assert not verify_proof(t1.prove(2), t2.root)


def test_proof_fails_with_tampered_value():
    tree = BinaryMerkleTree(leaves(8))
    proof = tree.prove(3)
    forged = MembershipProof(
        key=proof.key, value=b"tx-FORGED", leaf_prefix=proof.leaf_prefix, steps=proof.steps
    )
    assert not verify_proof(forged, tree.root)


def test_root_changes_with_any_leaf():
    base = BinaryMerkleTree(leaves(8)).root
    for i in range(8):
        modified = leaves(8)
        modified[i] = b"changed"
        assert BinaryMerkleTree(modified).root != base


def test_root_depends_on_order():
    a = BinaryMerkleTree([b"a", b"b"]).root
    b = BinaryMerkleTree([b"b", b"a"]).root
    assert a != b


def test_index_out_of_range():
    tree = BinaryMerkleTree(leaves(3))
    with pytest.raises(IndexError):
        tree.prove(3)


def test_verify_against_none_root_is_false():
    tree = BinaryMerkleTree(leaves(2))
    assert not verify_proof(tree.prove(0), None)


def test_proof_length_is_logarithmic():
    tree = BinaryMerkleTree(leaves(1024))
    assert len(tree.prove(0)) == 10


def test_proof_bytes_are_pinned():
    # Recorded before steps became plain pairs (see test_iavl.py); leaf
    # 36 of 37 is promoted unpaired through four levels.
    tree = BinaryMerkleTree(leaves(37))
    root = "87a59dc8cab9269846ddc8b50933ca3c59ad900e5f20292d6cf414e977e6957e"
    assert tree.root.hex() == root
    assert [proof_pin(tree.prove(i)) for i in (0, 18, 36)] == [
        (6, 203, root, "2fd500142821d59296d28115d27bef8c81ba89d376b2152f820748dfe2674595"),
        (6, 204, root, "e4ae91cc7d8842193d13101eeb92466a2d0b2995a26dedeff20e298be35591ec"),
        (2, 72, root, "c3ac281678a5a16aa32df5344ed1f27932a4437bc4127f7cde70a477c553fe01"),
    ]


@pytest.mark.parametrize(
    "malformed",
    [
        dict(value=None),
        dict(steps=(("\x01", b""),)),  # str prefix
        dict(steps=(("a", "b"),)),  # not a step at all
        dict(steps=((b"\x01", b"", b""),)),  # not a pair
        dict(steps=None),
    ],
    ids=["value-none", "str-prefix", "str-step", "triple-step", "steps-none"],
)
def test_verify_never_raises_on_a_malformed_proof(malformed):
    tree = BinaryMerkleTree(leaves(4))
    fields = dict(key=b"", value=b"tx-0", leaf_prefix=b"\x00", steps=tree.prove(0).steps)
    proof = MembershipProof(**{**fields, **malformed})
    assert verify_proof(proof, tree.root) is False
    with pytest.raises((TypeError, ValueError)):
        proof.computed_root()  # the reason is still there for who asks


def test_proof_is_immutable_and_hashable():
    tree = BinaryMerkleTree(leaves(8))
    proof, again = tree.prove(3), tree.prove(3)
    assert proof == again and hash(proof) == hash(again)
    assert proof != tree.prove(4)
    assert len({proof, again, tree.prove(4)}) == 2
    with pytest.raises(AttributeError):
        proof.steps.append((b"\x01", b""))
    from_list = MembershipProof(
        key=proof.key, value=proof.value, leaf_prefix=proof.leaf_prefix, steps=list(proof.steps)
    )
    assert from_list == proof and hash(from_list) == hash(proof)
