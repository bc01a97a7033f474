"""``MembershipProof`` is an immutable tuple record.

It must behave as the frozen dataclass it replaced did — equality and
hash of the field tuple, no field assignment, pickle and deepcopy,
keyword construction, list steps frozen, the same ``repr`` — and
``verify_proof`` must refuse, never raise on, anything that is not one.
"""

import copy
import pickle

import pytest

from repro.merkle.iavl import IAVLTree
from repro.merkle.proof import MembershipProof, verify_proof


@pytest.fixture
def proved():
    tree = IAVLTree()
    for i in range(9):
        tree.set(b"k%d" % i, b"v%d" % i)
    return tree.prove(b"k4"), tree.root_hash


def fields(proof):
    return (proof.key, proof.value, proof.leaf_prefix, proof.steps)


def test_equality_and_hash_are_the_field_tuples(proved):
    proof, _root = proved
    again = MembershipProof(*fields(proof))
    assert proof == again == fields(proof)
    assert hash(proof) == hash(again) == hash(fields(proof))
    assert proof != MembershipProof(proof.key, b"other", proof.leaf_prefix, proof.steps)


@pytest.mark.parametrize("name", ["key", "value", "leaf_prefix", "steps", "extra"])
def test_assigning_a_field_raises(proved, name):
    proof, _root = proved
    with pytest.raises(AttributeError):
        setattr(proof, name, b"x")


@pytest.mark.parametrize(
    "round_trip",
    [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"],
)
def test_round_trips_keep_type_and_fields(proved, round_trip):
    proof, root = proved
    back = round_trip(proof)
    assert type(back) is MembershipProof
    assert fields(back) == fields(proof)
    assert verify_proof(back, root)


def test_keyword_construction_and_list_steps_are_frozen(proved):
    proof, root = proved
    built = MembershipProof(
        key=proof.key, value=proof.value, leaf_prefix=proof.leaf_prefix, steps=list(proof.steps)
    )
    assert type(built.steps) is tuple
    assert built == proof and verify_proof(built, root)
    bare = MembershipProof(key=b"k", value=b"v", leaf_prefix=b"\x00")
    assert bare.steps == () and len(bare) == 0 and bare.size_bytes() == 3


def test_repr_is_the_dataclass_repr():
    proof = MembershipProof(key=b"k", value=b"v", leaf_prefix=b"\x00", steps=[(b"\x01", b"s")])
    assert repr(proof) == (
        "MembershipProof(key=b'k', value=b'v', leaf_prefix=b'\\x00', "
        "steps=((b'\\x01', b's'),))"
    )


def test_len_is_the_number_of_steps(proved):
    proof, _root = proved
    assert len(proof) == len(proof.steps) > 0
    assert list(proof) == list(fields(proof))


@pytest.mark.parametrize(
    "not_a_proof",
    [lambda p: None, lambda p: "x", lambda p: 5, lambda p: (1, 2), fields],
    ids=["none", "str", "int", "pair", "plain-4-tuple-of-its-fields"],
)
def test_verify_refuses_what_is_not_a_proof(proved, not_a_proof):
    proof, root = proved
    assert verify_proof(not_a_proof(proof), root) is False
