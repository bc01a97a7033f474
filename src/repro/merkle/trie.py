"""Ethereum-style hexary Merkle Patricia trie.

The Ethereum-flavoured chain commits its world state and per-contract
storage with this structure (paper Section II).  Keys are arbitrary byte
strings, decomposed into 4-bit nibbles; three node kinds exist:

* **leaf** — commits the *full* key and value:
  ``keccak(b"\\x02" + key + value)``.  Committing the full key (rather
  than only the remainder path, as Ethereum does) is sound and keeps the
  proof verifier shared with the other trees.
* **branch** — 16 child digest slots plus an optional value leaf for a
  key terminating at the branch:
  ``keccak(b"\\x03" + slot_0 .. slot_15 + value_slot)`` with 32 zero
  bytes for empty slots.
* **extension** — a shared nibble run:
  ``keccak(b"\\x04" + packed_nibbles + child_digest)``.

Nodes are immutable and structurally shared, so block-by-block root
recomputation touches only modified paths.  Proofs serialize into the
common :class:`~repro.merkle.proof.MembershipProof` prefix/suffix steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, List, Optional, Tuple, Union

from repro.crypto.hashing import keccak
from repro.merkle.proof import MembershipProof, proof_record

_LEAF_PREFIX = b"\x02"
_BRANCH_PREFIX = b"\x03"
_EXT_PREFIX = b"\x04"

_ZERO_SLOT = b"\x00" * 32

EMPTY_ROOT = keccak(b"empty-mpt")

Nibbles = Tuple[int, ...]


def _to_nibbles(key: bytes) -> Nibbles:
    out: List[int] = []
    for byte in key:
        out.append(byte >> 4)
        out.append(byte & 0x0F)
    return tuple(out)


def _pack(nibbles: Nibbles) -> bytes:
    return bytes(nibbles)


def _common_prefix(a: Nibbles, b: Nibbles) -> Nibbles:
    i = 0
    limit = min(len(a), len(b))
    while i < limit and a[i] == b[i]:
        i += 1
    return a[:i]


@dataclass(frozen=True)
class _Leaf:
    path: Nibbles  # key remainder below this point (routing only)
    key: bytes  # full key, committed in the digest
    value: bytes
    digest: bytes


def _leaf(path: Nibbles, key: bytes, value: bytes) -> _Leaf:
    return _Leaf(path=path, key=key, value=value, digest=keccak(_LEAF_PREFIX, key, value))


@dataclass(frozen=True)
class _Branch:
    children: Tuple[Optional["_TrieNode"], ...]  # 16 slots
    vleaf: Optional[_Leaf]  # key terminating exactly here
    digest: bytes


def _branch(children: Tuple[Optional["_TrieNode"], ...], vleaf: Optional[_Leaf]) -> _Branch:
    slots = b"".join(c.digest if c is not None else _ZERO_SLOT for c in children)
    vslot = vleaf.digest if vleaf is not None else _ZERO_SLOT
    return _Branch(children=children, vleaf=vleaf, digest=keccak(_BRANCH_PREFIX, slots, vslot))


@dataclass(frozen=True)
class _Ext:
    path: Nibbles  # non-empty shared run
    child: "_TrieNode"
    digest: bytes


def _ext(path: Nibbles, child: "_TrieNode") -> "_TrieNode":
    if not path:
        return child
    if isinstance(child, _Leaf):
        # Fold the run into the leaf's routing path instead of chaining.
        return _leaf(path + child.path, child.key, child.value)
    if isinstance(child, _Ext):
        return _Ext(
            path=path + child.path,
            child=child.child,
            digest=keccak(_EXT_PREFIX, _pack(path + child.path), child.child.digest),
        )
    return _Ext(path=path, child=child, digest=keccak(_EXT_PREFIX, _pack(path), child.digest))


_TrieNode = Union[_Leaf, _Branch, _Ext]


def _insert(node: Optional[_TrieNode], path: Nibbles, key: bytes, value: bytes) -> _TrieNode:
    if node is None:
        return _leaf(path, key, value)

    if isinstance(node, _Leaf):
        if node.path == path:
            return _leaf(path, key, value)  # overwrite same key
        prefix = _common_prefix(node.path, path)
        children: List[Optional[_TrieNode]] = [None] * 16
        vleaf: Optional[_Leaf] = None
        old_rem = node.path[len(prefix):]
        new_rem = path[len(prefix):]
        if old_rem:
            children[old_rem[0]] = _leaf(old_rem[1:], node.key, node.value)
        else:
            vleaf = _leaf((), node.key, node.value)
        if new_rem:
            children[new_rem[0]] = _leaf(new_rem[1:], key, value)
        else:
            vleaf = _leaf((), key, value)
        return _ext(prefix, _branch(tuple(children), vleaf))

    if isinstance(node, _Ext):
        prefix = _common_prefix(node.path, path)
        if len(prefix) == len(node.path):
            return _ext(node.path, _insert(node.child, path[len(prefix):], key, value))
        children = [None] * 16
        vleaf = None
        ext_rem = node.path[len(prefix):]
        children[ext_rem[0]] = _ext(ext_rem[1:], node.child)
        new_rem = path[len(prefix):]
        if new_rem:
            children[new_rem[0]] = _leaf(new_rem[1:], key, value)
        else:
            vleaf = _leaf((), key, value)
        return _ext(prefix, _branch(tuple(children), vleaf))

    # Branch
    if not path:
        return _branch(node.children, _leaf((), key, value))
    slot = path[0]
    updated = _insert(node.children[slot], path[1:], key, value)
    children = list(node.children)
    children[slot] = updated
    return _branch(tuple(children), node.vleaf)


def _collapse(node: _Branch) -> Optional[_TrieNode]:
    """Collapse a branch left with at most one entry after deletion."""
    live = [(i, c) for i, c in enumerate(node.children) if c is not None]
    if node.vleaf is not None and not live:
        return _leaf((), node.vleaf.key, node.vleaf.value)
    if node.vleaf is None and len(live) == 1:
        slot, child = live[0]
        return _ext((slot,), child)
    if node.vleaf is None and not live:
        return None
    return node


def _delete(node: Optional[_TrieNode], path: Nibbles) -> Tuple[Optional[_TrieNode], bool]:
    if node is None:
        return None, False

    if isinstance(node, _Leaf):
        if node.path == path:
            return None, True
        return node, False

    if isinstance(node, _Ext):
        if path[: len(node.path)] != node.path:
            return node, False
        new_child, removed = _delete(node.child, path[len(node.path):])
        if not removed:
            return node, False
        if new_child is None:
            return None, True
        return _ext(node.path, new_child), True

    # Branch
    if not path:
        if node.vleaf is None:
            return node, False
        return _collapse(_branch(node.children, None)), True
    slot = path[0]
    new_child, removed = _delete(node.children[slot], path[1:])
    if not removed:
        return node, False
    children = list(node.children)
    children[slot] = new_child
    return _collapse(_branch(tuple(children), node.vleaf)), True


class MerklePatriciaTrie:
    """Mutable facade over the persistent trie nodes."""

    #: Radix structure: the trie shape — and so the root — is fully
    #: determined by the key/value content, whatever the write order.
    history_independent = True

    def __init__(self) -> None:
        self._root: Optional[_TrieNode] = None

    @classmethod
    def from_sorted(cls, items: Iterable[Tuple[bytes, bytes]]) -> "MerklePatriciaTrie":
        """The trie of ``items`` (keys strictly increasing).  The shape
        depends on content alone, so this just inserts them."""
        trie = cls()
        for key, value in items:
            trie.set(key, value)
        return trie

    @property
    def root_hash(self) -> bytes:
        if self._root is None:
            return EMPTY_ROOT
        return self._root.digest

    def set(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        self._root = _insert(self._root, _to_nibbles(key), key, value)

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value for ``key`` or ``None``."""
        node = self._root
        path = _to_nibbles(key)
        while node is not None:
            if isinstance(node, _Leaf):
                return node.value if node.path == path else None
            if isinstance(node, _Ext):
                if path[: len(node.path)] != node.path:
                    return None
                node, path = node.child, path[len(node.path):]
                continue
            if not path:
                return node.vleaf.value if node.vleaf is not None else None
            node, path = node.children[path[0]], path[1:]
        return None

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns whether it was present."""
        self._root, removed = _delete(self._root, _to_nibbles(key))
        return removed

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Yield all (key, value) pairs (leaf order)."""
        def walk(node: Optional[_TrieNode]) -> Iterator[Tuple[bytes, bytes]]:
            if node is None:
                return
            if isinstance(node, _Leaf):
                yield node.key, node.value
                return
            if isinstance(node, _Ext):
                yield from walk(node.child)
                return
            if node.vleaf is not None:
                yield node.vleaf.key, node.vleaf.value
            for child in node.children:
                yield from walk(child)

        yield from walk(self._root)

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    def prove(self, key: bytes) -> MembershipProof:
        """Build a ``{v} ↦ m`` proof; raises :class:`KeyError` if absent."""
        steps: List[Tuple[bytes, bytes]] = []  # root first while descending
        node = self._root
        path = _to_nibbles(key)
        value: Optional[bytes] = None
        while node is not None:
            if isinstance(node, _Leaf):
                if node.path != path:
                    break
                value = node.value
                break
            if isinstance(node, _Ext):
                if path[: len(node.path)] != node.path:
                    break
                steps.append((_EXT_PREFIX + _pack(node.path), b""))
                path = path[len(node.path):]
                node = node.child
                continue
            # Branch
            slots = [c.digest if c is not None else _ZERO_SLOT for c in node.children]
            vslot = node.vleaf.digest if node.vleaf is not None else _ZERO_SLOT
            if not path:
                if node.vleaf is None:
                    break
                steps.append((_BRANCH_PREFIX + b"".join(slots), b""))
                value = node.vleaf.value
                break
            slot = path[0]
            prefix = _BRANCH_PREFIX + b"".join(slots[:slot])
            suffix = b"".join(slots[slot + 1:]) + vslot
            steps.append((prefix, suffix))
            node = node.children[slot]
            path = path[1:]
        if value is None:
            raise KeyError(key.hex())
        steps.reverse()
        return proof_record(key, value, _LEAF_PREFIX, tuple(steps))
