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

Verification needs *no* trusted metadata: the update builds its
candidate image (the storage the mirror serves + delta, or the carried
full image) and hands it to the one proven-state verifier,
:func:`~repro.core.proofs.verify_contract_state`, which folds the
account proof, checks ``VS``, decodes the proven 113-byte contract leaf
(balance, ``L_c``, move nonce, code hash, storage root — the fields
the mirror must reflect), checks the code against the proven code hash
and rebuilds the canonical storage root from the candidate with the
source chain's tree flavour, accepting only on an exact match — so a
torn or partial image can never be applied, and deletions need no
per-slot non-membership proofs.  The tree it built is what the target
installs (:meth:`~repro.statedb.state.WorldState.apply_mirror`).

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
from repro.core.proofs import verify_contract_state
from repro.crypto.keys import Address
from repro.errors import ProofError
from repro.merkle.proof import MembershipProof
from repro.merkle.protocol import AuthenticatedTree, TreeFactory
from repro.statedb.state import ContractLeaf


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
    ) -> Tuple[ContractLeaf, AuthenticatedTree]:
        """Verify against the target's light client; return the proven
        leaf and the canonical storage tree of the post-state image the
        mirror must adopt — the one the verifier built, in
        ``tree_factory`` (the source chain's flavour).

        Raises :class:`UnknownRootError` when ``VS`` fails (header
        unknown, not yet ``p``-confirmed, or reorged away) and
        :class:`ProofError` on any integrity mismatch.  ``base_image``
        is the storage the mirror serves, required for delta updates.
        """
        if self.image is None and base_image is None:
            raise ProofError("delta update without a base image")
        # An empty value in the delta deletes its slot.
        merged = self.image if self.image is not None else {**base_image, **(self.delta or {})}
        candidate = {key: value for key, value in merged.items() if value}
        return verify_contract_state(
            light_client, self.source_chain, self.proof_height, self.contract,
            self.account_proof, self.code, candidate, tree_factory,
        )
