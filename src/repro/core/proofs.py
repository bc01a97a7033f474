"""Contract state proof bundles (the ``V ↦ m`` of Algorithm 1).

A Move2 transaction must let the target chain reconstruct the contract
*provably*: the bundle carries the contract's full storage, code,
balance, location and move nonce, plus a Merkle membership proof of the
contract's account leaf under a state root ``m`` of the source chain.
The verifier recomputes the storage root canonically from the raw
storage, recomputes the code hash from the raw code, re-encodes the
account leaf, and checks the membership proof against ``m`` — so no
field can be tampered with independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.crypto.hashing import keccak_code
from repro.crypto.keys import Address
from repro.errors import ProofError
from repro.merkle.proof import MembershipProof, verify_proof
from repro.merkle.protocol import TreeFactory
from repro.statedb.state import (
    WorldState,
    compute_storage_root,
    encode_contract_leaf,
    ContractRecord,
)


@dataclass(frozen=True)
class ContractStateProof:
    """Everything Move2 needs to recreate contract ``contract``.

    ``proof_height`` is the *source-chain header height* whose
    ``state_root`` commits this bundle (on Burrow-flavoured chains that
    is one block after the state was produced, per the lag quirk).
    """

    source_chain: int
    contract: Address
    code: bytes
    storage: Dict[bytes, bytes]
    balance: int
    location: int
    move_nonce: int
    account_proof: MembershipProof
    proof_height: int

    def signing_fields(self) -> Tuple[Any, ...]:
        """The tuple canonically encoded when a Move2 is signed."""
        return (
            "contract-proof",
            self.source_chain,
            self.contract,
            self.code,
            sorted(self.storage.items()),
            self.balance,
            self.location,
            self.move_nonce,
            self.account_proof.computed_root(),
            self.proof_height,
        )

    def size_bytes(self) -> int:
        """Approximate serialized size — drives Move2 verification gas
        and models the bandwidth cost of moving large state."""
        storage_bytes = sum(len(k) + len(v) for k, v in self.storage.items())
        return len(self.code) + storage_bytes + self.account_proof.size_bytes()

    def verify_against_root(
        self, trusted_root: bytes, tree_factory: TreeFactory
    ) -> bool:
        """``VP(V ↦ m)``: does this bundle reconstruct ``trusted_root``?

        ``tree_factory`` must be the *source* chain's tree flavour so
        the storage root is rebuilt the way the source committed it.
        This is deliberately the canonical from-scratch rebuild
        (:func:`~repro.statedb.state.compute_storage_root`) — the
        verifier-side reference the source's incremental commit path is
        required to match bit-for-bit.
        """
        if self.account_proof.key != self.contract.raw:
            return False
        record = ContractRecord(
            code_hash=keccak_code(self.code),
            location=self.location,
            balance=self.balance,
            move_nonce=self.move_nonce,
            storage=dict(self.storage),
        )
        storage_root = compute_storage_root(tree_factory, record.storage)
        expected_leaf = encode_contract_leaf(record, storage_root)
        if self.account_proof.value != expected_leaf:
            return False
        return verify_proof(self.account_proof, trusted_root)


@dataclass(frozen=True)
class RemoteStateProof:
    """Proof of a single *storage entry* of a contract on another chain.

    The generic attestation primitive Section V-A alludes to ("a more
    generic method could be devised using Merkle proofs with the same
    proposed interfaces"): prove that contract ``container`` on
    ``chain_id`` maps ``storage key -> value`` at ``height``.

    Verification chains two membership proofs: the storage-entry proof
    reconstructs a storage root; the account proof's leaf must embed
    exactly that storage root (it is the trailing 32 bytes of the
    canonical contract-leaf encoding); and the account proof must
    reconstruct a state root the verifier's light client confirms.
    """

    chain_id: int
    height: int
    container: Address
    account_proof: MembershipProof
    storage_proof: MembershipProof

    def signing_fields(self) -> Tuple[Any, ...]:
        """The tuple canonically encoded when carried in a call."""
        return (
            "remote-state-proof",
            self.chain_id,
            self.height,
            self.container,
            self.account_proof.computed_root(),
            self.storage_proof.key,
            self.storage_proof.value,
        )

    def size_bytes(self) -> int:
        """Serialized size (drives the verification gas charge)."""
        return self.account_proof.size_bytes() + self.storage_proof.size_bytes()

    @property
    def key(self) -> bytes:
        return self.storage_proof.key

    @property
    def value(self) -> bytes:
        return self.storage_proof.value

    def verify(self, light_client) -> bool:
        """Full check against a light client's confirmed headers."""
        if self.account_proof.key != self.container.raw:
            return False
        leaf = self.account_proof.value
        if len(leaf) < 33 or not leaf.startswith(b"C"):
            return False
        committed_storage_root = leaf[-32:]
        if self.storage_proof.computed_root() != committed_storage_root:
            return False
        state_root = self.account_proof.computed_root()
        return light_client.valid_state_root(self.chain_id, self.height, state_root)


def build_contract_proof(
    state: WorldState,
    address: Address,
    code: bytes,
    proof_height: int,
) -> ContractStateProof:
    """Assemble the proof bundle from a chain's *committed* state.

    The caller (a client's light machinery, or the chain facade) is
    responsible for passing the ``proof_height`` whose header carries
    ``state.committed_root`` — and for only doing so once that height
    is ``p`` blocks behind the source head.
    """
    record = state.contract(address)
    if record is None:
        raise ProofError(f"no contract at {address}")
    if keccak_code(code) != record.code_hash:
        raise ProofError("provided code does not match the contract's code hash")
    account_proof = state.prove_account(address)
    bundle = ContractStateProof(
        source_chain=state.chain_id,
        contract=address,
        code=code,
        storage=dict(record.storage),
        balance=record.balance,
        location=record.location,
        move_nonce=record.move_nonce,
        account_proof=account_proof,
        proof_height=proof_height,
    )
    if not bundle.verify_against_root(state.committed_root, state.tree_factory):
        raise ProofError(
            "proof bundle does not verify against the committed root — "
            "the contract changed since the last commit"
        )
    return bundle
