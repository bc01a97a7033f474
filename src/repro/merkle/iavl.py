"""Tendermint-style IAVL tree: a balanced, keyed, authenticated map.

The Burrow-flavoured chains commit their application state with this
structure, mirroring Tendermint's modified AVL tree (paper Section II,
reference [16]).  Only leaves carry values; inner nodes route lookups
(an inner node's key is the smallest key of its right subtree) and are
rebalanced with standard AVL rotations, keeping depth — and therefore
proof length — logarithmic.

One ownership rule: **one tree owns all its nodes**, so every write
lands in place.  ``set`` overwrites a leaf, re-links and re-heights the
inner nodes on its path, and clears their digests up to the first
ancestor whose digest is already clear.  ``delete`` and the rotations
only read what they are given and allocate what they return; the nodes
they supersede die with the old root pointer.  Either way a cleared (or
fresh) node's ancestors are all clear, so a hashed node's whole subtree
is hashed.

The ``digest`` slot memoises a node's hash.  ``set``/``delete`` never
hash; the first ``root_hash`` or ``prove`` afterwards fills the missing
digests in one post-order walk over the cleared nodes only, and
``from_sorted`` builds a tree already hashed.  A block of overwrites
therefore allocates nothing and hashes each node on its dirty paths
once.  As for any container, mutating a tree while one of its
``items()`` generators is suspended is undefined.

Digests (SHA3-256 through ``merkle_hash_leaf``/``merkle_hash_node``)::

    leaf  = H(b"\\x00" + key + value)
    inner = H(b"\\x01" + left_digest + right_digest)
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Tuple

from repro.crypto.hashing import keccak, merkle_hash_leaf, merkle_hash_node
from repro.merkle.proof import MembershipProof, proof_record

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"

EMPTY_ROOT = keccak(b"empty-iavl")


class _Node:
    __slots__ = ("key", "value", "left", "right", "height", "digest")

    key: bytes
    value: Optional[bytes]  # None for inner nodes
    left: "_Node"  # inner nodes only: a leaf holds None and is never descended into
    right: "_Node"
    height: int
    digest: Optional[bytes]  # None from a write under it to the next root_hash/prove

    def __init__(self, key, value, left, right, height):
        self.key = key
        self.value = value
        self.left = left
        self.right = right
        self.height = height
        self.digest = None


def _leaf(key: bytes, value: bytes) -> _Node:
    return _Node(key, value, None, None, 0)


def _inner(key: bytes, left: _Node, right: _Node) -> _Node:
    """Inner node; ``key`` is the smallest key under ``right``."""
    lh, rh = left.height, right.height
    return _Node(key, None, left, right, (lh if lh > rh else rh) + 1)


def _min_key(node: _Node) -> bytes:
    while node.value is None:
        node = node.left
    return node.key


def _fill(node: _Node) -> bytes:
    """Digest ``node``, hashing exactly the un-hashed nodes under it."""
    if node.value is not None:
        digest = merkle_hash_leaf(node.key + node.value)
    else:
        left, right = node.left, node.right
        digest = merkle_hash_node(left.digest or _fill(left), right.digest or _fill(right))
    node.digest = digest
    return digest


def _build(items: List[Tuple[bytes, bytes]], lo: int, n: int) -> _Node:
    """The hashed subtree ascending ``set`` makes of ``items[lo:lo+n]``.

    Its left subtree holds the largest power of two ``p`` with
    ``3p < 2n`` leaves, and the rule recurses — the shape AVL rotations
    leave behind after sorted insertion (see docs/PROTOCOL.md).
    """
    if n == 1:
        key, value = items[lo]
        node = _Node(key, value, None, None, 0)
        node.digest = merkle_hash_leaf(key + value)
        return node
    p = 1 << (((2 * n - 1) // 3).bit_length() - 1)
    left = _build(items, lo, p)
    right = _build(items, lo + p, n - p)
    node = _inner(items[lo + p][0], left, right)
    node.digest = merkle_hash_node(left.digest, right.digest)
    return node


def _rotate_right(node: _Node) -> _Node:
    left = node.left
    return _inner(left.key, left.left, _inner(node.key, left.right, node.right))


def _rotate_left(node: _Node) -> _Node:
    right = node.right
    return _inner(right.key, _inner(node.key, node.left, right.left), right.right)


def _rebalance(node: _Node) -> _Node:
    """AVL-rotate the inner ``node`` if its children's heights differ by 2."""
    left, right = node.left, node.right
    factor = left.height - right.height
    if factor > 1:
        if left.left.height < left.right.height:
            node = _inner(node.key, _rotate_left(left), right)
        return _rotate_right(node)
    if factor < -1:
        if right.left.height > right.right.height:
            node = _inner(node.key, left, _rotate_right(right))
        return _rotate_left(node)
    return node


def _delete(node: Optional[_Node], key: bytes) -> Tuple[Optional[_Node], bool]:
    """Return (new subtree, removed?)."""
    if node is None:
        return None, False
    if node.value is not None:
        if node.key == key:
            return None, True
        return node, False
    if key < node.key:
        new_left, removed = _delete(node.left, key)
        if not removed:
            return node, False
        if new_left is None:
            return node.right, True
        return _rebalance(_inner(node.key, new_left, node.right)), True
    new_right, removed = _delete(node.right, key)
    if not removed:
        return node, False
    if new_right is None:
        return node.left, True
    # only deleting the routing key itself moves the right subtree's minimum
    routing = node.key if key != node.key else _min_key(new_right)
    return _rebalance(_inner(routing, node.left, new_right)), True


class IAVLTree:
    """Mutable facade over the node structure (ownership rule above)."""

    #: AVL rotation order leaks into the shape: the root is a function
    #: of the full operation history, not just the final content (all
    #: replicas applying the same ordered writes still agree).
    history_independent = False

    def __init__(self) -> None:
        self._root: Optional[_Node] = None

    @classmethod
    def from_sorted(cls, items: Iterable[Tuple[bytes, bytes]]) -> "IAVLTree":
        """The tree ``set`` builds from ``items`` inserted in ascending
        key order (keys strictly increasing), made in one post-order
        pass with no rotations and already hashed."""
        items = list(items)
        tree = cls()
        if items:
            tree._root = _build(items, 0, len(items))
        return tree

    @property
    def root_hash(self) -> bytes:
        """Merkle root committing the full key/value map."""
        root = self._root
        if root is None:
            return EMPTY_ROOT
        return root.digest or _fill(root)

    def set(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        if value is None:  # would turn the leaf into a childless inner node
            raise TypeError("IAVL values are bytes; use delete() to remove a key")
        node = self._root
        if node is None:
            self._root = _leaf(key, value)
            return
        path: List[_Node] = []  # the inner nodes above the leaf, root first
        while node.value is None:
            path.append(node)
            node = node.left if key < node.key else node.right
        if node.key == key:
            node.value = value  # an overwrite keeps the shape
            if node.digest is not None:
                node.digest = None
                for parent in reversed(path):
                    if parent.digest is None:
                        return  # its ancestors are clear already
                    parent.digest = None
            return
        if key < node.key:
            node = _inner(node.key, _leaf(key, value), node)
        else:
            node = _inner(key, node, _leaf(key, value))
        # ``node`` replaces the child the descent took out of ``path[-1]``.
        while path:
            parent = path.pop()
            if key < parent.key:
                parent.left = node
            else:
                parent.right = node
            lh, rh = parent.left.height, parent.right.height
            height = (lh if lh > rh else rh) + 1
            if parent.digest is None:
                if parent.height == height:
                    return  # its ancestors are clear too and see no change
            else:
                parent.digest = None
            parent.height = height
            node = parent
            if not -2 < lh - rh < 2:
                node = _rebalance(node)
        self._root = node

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value for ``key`` or ``None``."""
        node = self._root
        while node is not None:
            if node.value is not None:
                return node.value if node.key == key else None
            node = node.left if key < node.key else node.right
        return None

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns whether it was present."""
        self._root, removed = _delete(self._root, key)
        return removed

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Yield (key, value) pairs in key order."""
        stack: List[_Node] = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            if node.value is not None:
                yield node.key, node.value
            node = node.right

    def prove(self, key: bytes) -> MembershipProof:
        """Build a ``{v} ↦ m`` membership proof for ``key``.

        Raises :class:`KeyError` if the key is absent (non-membership
        proofs are not needed by the Move protocol).
        """
        node = self._root
        if node is None:
            raise KeyError(key.hex())
        if node.digest is None:
            _fill(node)  # sibling digests are read below
        steps: List[Tuple[bytes, bytes]] = []  # root first while descending
        while node.value is None:
            if key < node.key:
                steps.append((_NODE_PREFIX, node.right.digest))
                node = node.left
            else:
                steps.append((_NODE_PREFIX + node.left.digest, b""))
                node = node.right
        if node.key != key:
            raise KeyError(key.hex())
        steps.reverse()
        return proof_record(key, node.value, _LEAF_PREFIX, tuple(steps))

    def height(self) -> int:
        """Tree height (0 for empty or single leaf)."""
        return self._root.height if self._root is not None else 0
