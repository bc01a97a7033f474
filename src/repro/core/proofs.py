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
from typing import Any, Dict, Optional, Tuple

from repro.crypto.hashing import keccak_code
from repro.crypto.keys import Address
from repro.merkle.proof import MembershipProof, verify_proof
from repro.merkle.protocol import AuthenticatedTree, TreeFactory
from repro.statedb.state import (
    build_storage_trie,
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
        """The tuple canonically encoded when a Move2 is signed.

        The code is signed by its hash: VP recomputes ``keccak(code)``
        against the proven leaf's code hash, so the hash binds the code
        exactly as the blob would (``DeployPayload`` signs a code hash
        too), and a Move2's signing bytes do not grow with its code.
        """
        return (
            "contract-proof",
            self.source_chain,
            self.contract,
            keccak_code(self.code),
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
    ) -> Optional[AuthenticatedTree]:
        """``VP(V ↦ m)``: does this bundle reconstruct ``trusted_root``?

        Returns the canonical storage tree it rebuilt from the carried
        slots when the bundle verifies, else ``None`` — compare with
        ``is None``: an empty tree is falsy.  ``tree_factory`` must be
        the *source* chain's tree flavour so the storage root is rebuilt
        the way the source committed it.  The rebuild is the canonical
        from-scratch one — the verifier-side reference the source's
        incremental commit path must match bit for bit.  A bundle
        carrying an empty slot value is refused before anything is
        built: a committed storage never holds one.
        """
        if self.account_proof.key != self.contract.raw or not all(
            self.storage.values()
        ):
            return None
        record = ContractRecord(
            code_hash=keccak_code(self.code),
            location=self.location,
            balance=self.balance,
            move_nonce=self.move_nonce,
        )
        tree = build_storage_trie(tree_factory, self.storage)
        expected_leaf = encode_contract_leaf(record, tree.root_hash)
        if self.account_proof.value != expected_leaf:
            return None
        return tree if verify_proof(self.account_proof, trusted_root) else None


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
        """Full check against a light client's confirmed headers.

        Returns ``False`` (never raises) on any mismatch, a malformed
        proof included: only the storage proof's key and value are
        signed, so its steps reach here unchecked.
        """
        account, storage = self.account_proof, self.storage_proof
        if (
            type(account) is not MembershipProof
            or type(self.container) is not Address
            or account.key != self.container.raw
        ):
            return False
        leaf = account.value
        if type(leaf) is not bytes or len(leaf) < 33 or not leaf.startswith(b"C"):
            return False
        if not verify_proof(storage, leaf[-32:]):
            return False
        try:
            state_root = account.computed_root()
        except (TypeError, ValueError):
            return False
        return light_client.valid_state_root(self.chain_id, self.height, state_root)
