"""Authenticated data structures (the paper's "Merkle-trees").

The paper (Section II) treats all commitment structures uniformly as
"Merkle-trees": Bitcoin uses a binary Merkle tree, Tendermint a modified
AVL tree (IAVL), Ethereum a hexary Merkle Patricia trie.  This package
implements all three, each producing proofs that satisfy the common
``{v} ↦ m`` interface in :mod:`repro.merkle.proof`: a proof carries the
leaf value and the sibling digests needed to recompute the root ``m``;
verification is logarithmic in tree size.
"""

from repro.merkle.binary import BinaryMerkleTree
from repro.merkle.iavl import IAVLTree
from repro.merkle.proof import MembershipProof, verify_proof
from repro.merkle.protocol import AuthenticatedTree, TreeFactory
from repro.merkle.trie import MerklePatriciaTrie

__all__ = [
    "AuthenticatedTree",
    "BinaryMerkleTree",
    "IAVLTree",
    "MerklePatriciaTrie",
    "MembershipProof",
    "TreeFactory",
    "verify_proof",
]
