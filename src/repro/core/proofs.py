"""Proven contract state: one verifier and the records that carry it.

A Move2 bundle (:class:`ContractStateProof`, the ``V ↦ m`` of
Algorithm 1), a mirror's :class:`~repro.replicate.protocol.ReplicaUpdate`
and a single storage entry (:class:`RemoteStateProof`, §V-A) all claim
"this contract leaf, and these slots, are under a ``p``-confirmed root
of chain B".  Each checks it with :func:`proven_contract_leaf` (one fold
of the account proof, ``VS`` on its root, the leaf decoded) and, with
code and slots, :func:`verify_contract_state`.  Both raise
:class:`~repro.errors.UnknownRootError` when ``VS`` fails and
:class:`~repro.errors.ProofError` for anything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Tuple

from repro.crypto.hashing import keccak_code
from repro.crypto.keys import Address
from repro.errors import ProofError, UnknownRootError
from repro.merkle.proof import MembershipProof, verify_proof
from repro.merkle.protocol import AuthenticatedTree, TreeFactory
from repro.statedb.state import ContractLeaf, build_storage_trie, decode_contract_leaf

if TYPE_CHECKING:
    from repro.chain.lightclient import LightClient


def proven_contract_leaf(
    light_client: LightClient, chain_id: int, height: int, contract: Address,
    account_proof: MembershipProof,
) -> ContractLeaf:
    """The leaf of ``contract`` that ``account_proof`` proves under the
    ``p``-confirmed state root of chain ``chain_id`` at ``height``; ``VS``
    comes before every integrity check."""
    if (type(account_proof), type(contract), type(chain_id), type(height)) != (
        MembershipProof, Address, int, int
    ):
        raise ProofError("malformed proven-state claim")
    try:
        root = account_proof.computed_root()
    except (TypeError, ValueError):
        raise ProofError("account proof cannot be folded") from None
    if not light_client.valid_state_root(chain_id, height, root):
        raise UnknownRootError(
            f"state root at source height {height} is unknown "
            "or not yet p-confirmed (VS failed)"
        )
    if account_proof.key != contract.raw:
        raise ProofError("account proof is for a different address")
    return decode_contract_leaf(account_proof.value)


def verify_contract_state(
    light_client: LightClient, chain_id: int, height: int, contract: Address,
    account_proof: MembershipProof, code: bytes, storage: Dict[bytes, bytes],
    tree_factory: TreeFactory,
) -> Tuple[ContractLeaf, AuthenticatedTree]:
    """:func:`proven_contract_leaf`, then the carried code and the whole
    carried storage (``bytes`` to non-empty ``bytes``), rebuilt
    canonically in ``tree_factory`` — the *source* chain's flavour.
    Returns the proven leaf and that tree."""
    leaf = proven_contract_leaf(light_client, chain_id, height, contract, account_proof)
    if type(code) is not bytes or keccak_code(code) != leaf.code_hash:
        raise ProofError("carried code does not match the proven code hash")
    if type(storage) is not dict or not all(
        type(key) is bytes and type(value) is bytes and value
        for key, value in storage.items()
    ):
        raise ProofError("storage slots must map bytes to non-empty bytes")
    tree = build_storage_trie(tree_factory, storage)
    if tree.root_hash != leaf.storage_root:
        raise ProofError("candidate storage does not reproduce the proven storage root")
    return leaf, tree


@dataclass(frozen=True)
class ContractStateProof:
    """Everything Move2 needs to recreate contract ``contract``.

    ``proof_height`` is the *source-chain header height* whose
    ``state_root`` commits this bundle (on Burrow-flavoured chains that
    is one block after the state was produced, per the lag quirk).  The
    balance, ``L_c`` and move nonce travel only inside the account
    proof's leaf: Move2 reads them from the proven leaf.
    """

    source_chain: int
    contract: Address
    code: bytes
    storage: Dict[bytes, bytes]
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
            self.account_proof.computed_root(),
            self.proof_height,
        )

    def size_bytes(self) -> int:
        """Approximate serialized size — drives Move2 verification gas
        and models the bandwidth cost of moving large state."""
        storage_bytes = sum(len(k) + len(v) for k, v in self.storage.items())
        return len(self.code) + storage_bytes + self.account_proof.size_bytes()

    def verify_against_root(
        self, light_client: LightClient, tree_factory: TreeFactory
    ) -> Tuple[ContractLeaf, AuthenticatedTree]:
        """``VS(B_i, m)`` and ``VP(V ↦ m)``: :func:`verify_contract_state`
        on the bundle.  Returns the proven leaf and the tree."""
        return verify_contract_state(
            light_client, self.source_chain, self.proof_height, self.contract,
            self.account_proof, self.code, self.storage, tree_factory,
        )


@dataclass(frozen=True)
class RemoteStateProof:
    """Proof of a single *storage entry* of a contract on another chain.

    The generic attestation primitive Section V-A alludes to ("a more
    generic method could be devised using Merkle proofs with the same
    proposed interfaces"): prove that contract ``container`` on
    ``chain_id`` maps ``storage key -> value`` at ``height``.

    Verification chains two membership proofs: the account proof must
    reconstruct a state root the verifier's light client confirms
    (:func:`proven_contract_leaf`), and the storage-entry proof must
    reconstruct the storage root that proven leaf commits to.
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
        try:
            leaf = proven_contract_leaf(
                light_client, self.chain_id, self.height, self.container, self.account_proof
            )
        except ProofError:
            return False
        return verify_proof(self.storage_proof, leaf.storage_root)
