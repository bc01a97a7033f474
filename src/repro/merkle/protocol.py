"""The typed protocol over the authenticated maps.

Everything that commits state in this repository is "a Merkle-tree" to
the paper; :class:`AuthenticatedTree` gives the mutable authenticated
*map* (the IAVL tree and the Patricia trie) a static type — keyed
get/set/delete, membership proofs, ordered iteration — so the higher
layers (:mod:`repro.statedb`, :mod:`repro.chain`, :mod:`repro.core`)
can hold trees without poking at implementation privates or sprinkling
``type: ignore`` over duck-typed calls.

A tree is one live map: nothing else holds its nodes, so a write may
change them in place.  What must outlive a write is a *proof*: a
:class:`~repro.merkle.proof.MembershipProof` is immutable bytes, and
the chain keeps the ones peers will ask for instead of old trees.

``history_independent`` declares whether the root is a function of the
*content* alone (Patricia trie: yes) or of the operation history too
(IAVL: AVL rotation order leaks into the shape).  The incremental
commitment layer in :mod:`repro.statedb.state` keys its strategy off
this flag: history-independent trees fold changed slots in place, while
history-dependent ones must canonically refold when a key set changes.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Optional, Protocol, Tuple, Type, runtime_checkable

from repro.merkle.proof import MembershipProof


@runtime_checkable
class AuthenticatedTree(Protocol):
    """A mutable authenticated map producing ``{v} ↦ m`` proofs.

    Implemented by :class:`~repro.merkle.iavl.IAVLTree` and
    :class:`~repro.merkle.trie.MerklePatriciaTrie`; the world state and
    per-contract storage commitments are built on this interface.
    """

    #: True when the root depends only on the key/value content, not on
    #: the order the operations arrived in.
    history_independent: bool

    @classmethod
    def from_sorted(cls, items: Iterable[Tuple[bytes, bytes]]) -> "AuthenticatedTree":
        """The canonical tree of ``items`` (keys strictly increasing):
        exactly what ``set`` makes of them inserted in that order."""
        ...

    @property
    def root_hash(self) -> bytes:
        """Root digest committing the full key/value map."""
        ...

    def set(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite ``key``."""
        ...

    def get(self, key: bytes) -> Optional[bytes]:
        """Return the value for ``key`` or ``None``."""
        ...

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns whether it was present."""
        ...

    def prove(self, key: bytes) -> MembershipProof:
        """Build a ``{v} ↦ m`` membership proof for ``key``."""
        ...

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        """Yield the committed (key, value) pairs."""
        ...

    def __contains__(self, key: object) -> bool: ...


#: A chain's tree flavour: the tree class itself — ``factory()`` is an
#: empty map, ``factory.from_sorted(items)`` the canonical build.
TreeFactory = Type[AuthenticatedTree]
