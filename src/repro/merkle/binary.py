"""Bitcoin-style binary Merkle tree over an ordered list of leaves.

Used to commit the transaction list of a block body to the
``transactions_root`` field of the block header.  Leaves are arbitrary
byte strings; an odd node at any level is promoted unchanged to the next
level (no Bitcoin-style duplication, which avoids the classic
CVE-2012-2459 ambiguity).

Proofs fit the common :class:`~repro.merkle.proof.MembershipProof`
interface: the leaf digest is ``keccak(b"\\x00" + payload)`` and each
internal node is ``keccak(b"\\x01" + left + right)``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.crypto.hashing import keccak, merkle_hash_leaf, merkle_hash_node
from repro.merkle.proof import MembershipProof, proof_record

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"

EMPTY_ROOT = keccak(b"empty-binary-merkle")


class BinaryMerkleTree:
    """A static binary Merkle tree built from a sequence of leaves."""

    def __init__(self, leaves: Sequence[bytes]):
        self._leaves: List[bytes] = list(leaves)
        self._levels: List[List[bytes]] = []
        self._build()

    def _build(self) -> None:
        if not self._leaves:
            self._levels = []
            return
        level = [merkle_hash_leaf(leaf) for leaf in self._leaves]
        self._levels = [level]
        while len(level) > 1:
            parent = list(map(merkle_hash_node, level[0::2], level[1::2]))
            if len(level) % 2 == 1:
                parent.append(level[-1])  # promote the odd node
            self._levels.append(parent)
            level = parent

    @property
    def root(self) -> bytes:
        """Merkle root; a fixed sentinel digest for the empty tree."""
        if not self._levels:
            return EMPTY_ROOT
        return self._levels[-1][0]

    def __len__(self) -> int:
        return len(self._leaves)

    def prove(self, index: int) -> MembershipProof:
        """Build a ``{v} ↦ m`` proof for the leaf at ``index``."""
        if not 0 <= index < len(self._leaves):
            raise IndexError(f"leaf index {index} out of range")
        steps: List[Tuple[bytes, bytes]] = []
        position = index
        for level in self._levels[:-1]:
            is_right = position % 2 == 1
            sibling_index = position - 1 if is_right else position + 1
            if sibling_index < len(level):
                sibling = level[sibling_index]
                if is_right:
                    steps.append((_NODE_PREFIX + sibling, b""))
                else:
                    steps.append((_NODE_PREFIX, sibling))
            # else: odd node promoted — no step at this level
            position //= 2
        return proof_record(b"", self._leaves[index], _LEAF_PREFIX, tuple(steps))
