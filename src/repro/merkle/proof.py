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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.crypto.hashing import keccak


@dataclass(frozen=True)
class MembershipProof:
    """Proof that ``key`` maps to ``value`` under some Merkle root.

    ``leaf_prefix`` lets each structure keep its own leaf
    domain-separation; the leaf digest is
    ``keccak(leaf_prefix + key + value)``.  ``steps`` holds one
    ``(prefix, suffix)`` pair per level, leaf to root; a list is
    frozen into a tuple, so a proof is immutable and hashable.
    """

    key: bytes
    value: bytes
    leaf_prefix: bytes
    steps: Tuple[Tuple[bytes, bytes], ...] = ()

    def __post_init__(self) -> None:
        if isinstance(self.steps, list):
            object.__setattr__(self, "steps", tuple(self.steps))

    def leaf_digest(self) -> bytes:
        """Digest of the (key, value) leaf under this proof's domain."""
        return keccak(self.leaf_prefix, self.key, self.value)

    def computed_root(self) -> bytes:
        """Recompute the Merkle root implied by this proof.

        Every fold goes through the small-input :func:`keccak` memo:
        proofs against one root share their upper steps, and a memo hit
        costs about 0.6 of hashing the same 65 bytes again.
        """
        digest = self.leaf_digest()
        for prefix, suffix in self.steps:
            digest = keccak(prefix, digest, suffix)
        return digest

    def size_bytes(self) -> int:
        """Total serialized size (drives Move2 proof-verification gas)."""
        total = len(self.key) + len(self.value) + len(self.leaf_prefix)
        return total + sum(len(prefix) + len(suffix) for prefix, suffix in self.steps)

    def __len__(self) -> int:
        return len(self.steps)


def verify_proof(proof: MembershipProof, trusted_root: Optional[bytes]) -> bool:
    """``VP(V ↦ m)``: does the proof reconstruct the trusted root?

    Returns ``False`` (never raises) on any mismatch, including a
    missing trusted root and a proof whose fields are not the byte
    strings and pairs they should be: proofs arrive inside
    client-signed payloads.  :meth:`MembershipProof.computed_root`
    itself still raises, for a caller that wants the reason.
    """
    if trusted_root is None:
        return False
    try:
        return proof.computed_root() == trusted_root
    except (TypeError, ValueError):
        return False
