"""The common ``{v} ↦ m`` proof interface.

Every authenticated structure in :mod:`repro.merkle` produces a
:class:`MembershipProof`: the claimed key/value plus the sibling
material of every level between the leaf and the root.  Recomputing
the root from the leaf through the steps and comparing against a
trusted root ``m`` implements the paper's ``VP(V ↦ m)`` predicate;
:func:`verify_proof` is that predicate.

The step encoding is deliberately structure-agnostic: a step is a
``(prefix, suffix)`` pair of byte strings to hash *around* the running
digest — ``parent = keccak(prefix + child + suffix)`` — ordered leaf to
root, so binary trees, IAVL nodes and trie nodes all serialize into the
same proof shape and a single verifier.

A proof is an immutable record: a 4-tuple ``(key, value, leaf_prefix,
steps)`` underneath, like :class:`~repro.chain.tx.TransferPayload` and
:class:`~repro.crypto.keys.Address`, built by one ``tuple.__new__``
with no per-field attribute writes.  One consequence of the layout:
**a proof equals the plain tuple of its fields** and hashes like it —
the value the frozen dataclass it replaces hashed to.  It is still not
*a* proof: :func:`verify_proof` refuses anything whose type is not
exactly :class:`MembershipProof`.
"""

from __future__ import annotations

from collections import _tuplegetter  # namedtuple's field accessor, in C
from typing import Optional, Tuple

from repro.crypto.hashing import keccak_path


class MembershipProof(tuple):
    """Proof that ``key`` maps to ``value`` under some Merkle root.

    ``leaf_prefix`` lets each structure keep its own leaf
    domain-separation; the leaf digest is
    ``keccak(leaf_prefix + key + value)``.  ``steps`` holds one
    ``(prefix, suffix)`` pair per level, leaf to root; a list is
    frozen into a tuple, so a proof is immutable and hashable.
    """

    __slots__ = ()

    key = _tuplegetter(0, "The proven key (empty for positional trees).")
    value = _tuplegetter(1, "The proven value.")
    leaf_prefix = _tuplegetter(2, "The structure's leaf domain separator.")
    steps = _tuplegetter(3, "``(prefix, suffix)`` pairs, leaf to root.")

    def __new__(
        cls,
        key: bytes,
        value: bytes,
        leaf_prefix: bytes,
        steps: Tuple[Tuple[bytes, bytes], ...] = (),
    ) -> "MembershipProof":
        if isinstance(steps, list):
            steps = tuple(steps)
        return tuple.__new__(cls, (key, value, leaf_prefix, steps))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return (
            f"MembershipProof(key={self[0]!r}, value={self[1]!r}, "
            f"leaf_prefix={self[2]!r}, steps={self[3]!r})"
        )

    def computed_root(self) -> bytes:
        """Recompute the Merkle root implied by this proof.

        One loop (:func:`~repro.crypto.hashing.keccak_path`): the leaf
        is hashed directly, and every step of at most 128 bytes goes
        through the small-input keccak memo — proofs against one root
        share their upper steps, and a memo hit costs about 0.6 of
        hashing the same 65 bytes again.
        """
        return keccak_path(self[2] + self[0] + self[1], self[3])

    def size_bytes(self) -> int:
        """Total serialized size (drives Move2 proof-verification gas)."""
        total = len(self[0]) + len(self[1]) + len(self[2])
        return total + sum(len(prefix) + len(suffix) for prefix, suffix in self[3])

    def __len__(self) -> int:
        """Number of steps (the proof's depth), not the record's width."""
        return len(self[3])


def proof_record(key: bytes, value: bytes, leaf_prefix: bytes, steps: tuple) -> MembershipProof:
    """The one place the trees build a proof: ``steps`` must already be
    a tuple of ``(prefix, suffix)`` byte pairs."""
    return tuple.__new__(MembershipProof, (key, value, leaf_prefix, steps))


def verify_proof(proof: MembershipProof, trusted_root: Optional[bytes]) -> bool:
    """``VP(V ↦ m)``: does the proof reconstruct the trusted root?

    Returns ``False`` (never raises) on any mismatch, including a
    missing trusted root, a value that is not a :class:`MembershipProof`
    (a plain tuple of the right fields included) and a proof whose
    fields are not the byte strings and pairs they should be: proofs
    arrive inside client-signed payloads.
    :meth:`MembershipProof.computed_root` itself still raises, for a
    caller that wants the reason.
    """
    if trusted_root is None or type(proof) is not MembershipProof:
        return False
    try:
        return proof.computed_root() == trusted_root
    except (TypeError, ValueError):
        return False
