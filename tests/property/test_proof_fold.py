"""The proof record folds exactly like the frozen dataclass it replaced.

For IAVL, binary and Merkle-Patricia proofs of arbitrary contents:

* ``computed_root()`` equals the reference fold — ``sha3(prefix + d +
  suffix)`` up from ``d = sha3(leaf_prefix + key + value)`` — with no
  memo anywhere, and both equal the tree's root;
* the MPT cases always fold branch steps longer than the 128-byte memo
  bound (the root is a branch), so both sides of the bound are covered;
* ``size_bytes()`` and ``len()`` are what the fields define.
"""

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import _MEMO_MAX_LEN
from repro.merkle.binary import BinaryMerkleTree
from repro.merkle.iavl import IAVLTree
from repro.merkle.proof import MembershipProof, verify_proof
from repro.merkle.trie import MerklePatriciaTrie

contents = st.dictionaries(
    st.binary(min_size=1, max_size=12), st.binary(min_size=1, max_size=40), max_size=40
)


def reference_root(proof):
    digest = hashlib.sha3_256(proof.leaf_prefix + proof.key + proof.value).digest()
    for prefix, suffix in proof.steps:
        digest = hashlib.sha3_256(prefix + digest + suffix).digest()
    return digest


def check(proof, root):
    assert type(proof) is MembershipProof
    assert proof.computed_root() == reference_root(proof) == root
    assert verify_proof(proof, root)
    assert len(proof) == len(proof.steps)
    assert proof.size_bytes() == len(proof.key) + len(proof.value) + len(
        proof.leaf_prefix
    ) + sum(len(prefix) + len(suffix) for prefix, suffix in proof.steps)


def longest_step(proof):
    return max((len(p) + 32 + len(s) for p, s in proof.steps), default=0)


@given(contents)
@settings(max_examples=60, deadline=None)
def test_iavl_proofs_fold_like_the_reference(entries):
    tree = IAVLTree()
    for key, value in entries.items():
        tree.set(key, value)
    for key in entries:
        check(tree.prove(key), tree.root_hash)


@given(st.lists(st.binary(min_size=0, max_size=40), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_binary_proofs_fold_like_the_reference(leaves):
    tree = BinaryMerkleTree(leaves)
    for index in range(len(leaves)):
        check(tree.prove(index), tree.root)


@given(contents)
@settings(max_examples=60, deadline=None)
def test_mpt_proofs_fold_like_the_reference(entries):
    # Two keys that differ in their first nibble make the root a branch:
    # every proof then folds at least one step over the memo bound.
    entries = {b"\x00anchor": b"low", b"\xf0anchor": b"high", **entries}
    trie = MerklePatriciaTrie()
    for key, value in entries.items():
        trie.set(key, value)
    for key in entries:
        proof = trie.prove(key)
        check(proof, trie.root_hash)
        assert longest_step(proof) > _MEMO_MAX_LEN
