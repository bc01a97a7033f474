"""The replica-update wire format and its verification rules.

A :class:`ReplicaUpdate` is the unit of the staleness-bounded sync
protocol (SmartSync-style): it brings a read-only mirror from the
source contract's committed post-state at block ``since_height`` to its
committed post-state at block ``state_height``, carrying

* either the **full storage image** at ``state_height`` (initial sync,
  or when the source's delta log no longer covers the window), or the
  **merged slot delta** written in ``(since_height, state_height]``
  (``b""`` marks a deleted slot);
* one **account membership proof** of the contract's leaf against the
  source's state root at ``state_height`` — the same ``{v} ↦ m`` proof
  a Move2 bundle carries, captured the same way when the height committed;
* the contract **code** (checked against the proven code hash).

Verification needs *no* trusted metadata: the proven 113-byte contract
leaf is parsed directly (:func:`parse_contract_leaf`), yielding the
balance, ``L_c``, move nonce, code hash and storage root the mirror
must reflect.  The verifier then rebuilds the canonical storage root
from the candidate image (current mirror image + delta, or the carried
full image) with the source chain's tree flavour and accepts only on an
exact match — so a torn or partial image can never be applied, and
deletions need no per-slot non-membership proofs.

The staleness bound falls out of ``VS``: the account proof's root is
trusted only when the header at ``proof_height`` is ``p``-confirmed by
the *target's* light client, so every accepted update reflects a
committed source state at most ``p + state_root_lag`` blocks behind the
newest source header the target has seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.chain.lightclient import LightClient
from repro.crypto.hashing import keccak_code
from repro.crypto.keys import Address
from repro.errors import ProofError, UnknownRootError
from repro.merkle.proof import MembershipProof
from repro.merkle.protocol import TreeFactory
from repro.statedb.state import compute_storage_root

#: byte layout of a contract leaf (see ``encode_contract_leaf``)
_LEAF_LEN = 1 + 32 + 8 + 8 + 32 + 32


@dataclass(frozen=True)
class ParsedContractLeaf:
    """The committed contract fields recovered from a proven leaf."""

    balance: int
    location: int
    move_nonce: int
    code_hash: bytes
    storage_root: bytes


def parse_contract_leaf(leaf: bytes) -> ParsedContractLeaf:
    """Decode the canonical contract-leaf bytes (inverse of
    ``encode_contract_leaf``); raises :class:`ProofError` on any other
    shape (an account leaf, a truncated blob)."""
    if len(leaf) != _LEAF_LEN or leaf[:1] != b"C":
        raise ProofError("proven leaf is not a contract leaf")
    return ParsedContractLeaf(
        balance=int.from_bytes(leaf[1:33], "big"),
        location=int.from_bytes(leaf[33:41], "big"),
        move_nonce=int.from_bytes(leaf[41:49], "big"),
        code_hash=leaf[49:81],
        storage_root=leaf[81:113],
    )


@dataclass(frozen=True)
class ReplicaUpdate:
    """One verifiable sync step for a read-only mirror."""

    source_chain: int
    contract: Address
    #: source block whose post-state this update reproduces
    state_height: int
    #: source header height whose ``state_root`` commits that post-state
    #: (``state_height + state_root_lag``)
    proof_height: int
    #: mirror's synced height this delta applies on top of (None = full)
    since_height: Optional[int]
    delta: Optional[Dict[bytes, bytes]]
    image: Optional[Dict[bytes, bytes]]
    code: bytes
    account_proof: MembershipProof

    @property
    def is_full(self) -> bool:
        return self.image is not None

    def size_bytes(self) -> int:
        """Serialized size (drives the ``replicate_update_bytes``
        metric and the bench's bandwidth column)."""
        payload = self.image if self.image is not None else self.delta or {}
        slots = sum(len(key) + len(value) for key, value in payload.items())
        return slots + len(self.code) + self.account_proof.size_bytes()

    def verify(
        self,
        light_client: LightClient,
        tree_factory: TreeFactory,
        base_image: Optional[Mapping[bytes, bytes]] = None,
    ) -> Tuple[ParsedContractLeaf, Dict[bytes, bytes]]:
        """Verify against the target's light client; return the parsed
        leaf and the full post-state image the mirror must adopt.

        Raises :class:`UnknownRootError` when ``VS`` fails (header
        unknown, not yet ``p``-confirmed, or reorged away) and
        :class:`ProofError` on any integrity mismatch.  ``base_image``
        is the mirror's current image, required for delta updates.
        """
        root = self.account_proof.computed_root()
        if not light_client.valid_state_root(self.source_chain, self.proof_height, root):
            raise UnknownRootError(
                f"VS failed for chain {self.source_chain} @ {self.proof_height}"
            )
        if self.account_proof.key != self.contract.raw:
            raise ProofError("account proof is for a different address")
        leaf = parse_contract_leaf(self.account_proof.value)
        if keccak_code(self.code) != leaf.code_hash:
            raise ProofError("carried code does not match the proven code hash")
        if self.image is not None:
            candidate = {k: v for k, v in self.image.items() if v}
        else:
            if base_image is None:
                raise ProofError("delta update without a base image")
            candidate = dict(base_image)
            for key, value in (self.delta or {}).items():
                if value:
                    candidate[key] = value
                else:
                    candidate.pop(key, None)
        if compute_storage_root(tree_factory, candidate) != leaf.storage_root:
            raise ProofError(
                "candidate storage does not reproduce the proven storage root"
            )
        return leaf, candidate
