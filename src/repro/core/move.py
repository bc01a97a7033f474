"""Move1 / Move2 — Algorithm 1 of the paper.

``apply_move1`` (executed at the source chain ``B_i``):

1. run the contract's custom ``moveTo(target)`` guard (Listing 1) —
   a revert here refuses the move;
2. assign ``L_c := B_j`` (the effect of the new ``OP_MOVE`` opcode),
   blocking all further mutation at ``B_i``;
3. bump the contract's **move nonce** so the locked state — which the
   Move2 proof will carry — is distinguishable from every earlier
   residency (replay guard, Fig. 2).

``apply_move2`` (executed at the target chain ``B_j``):

1. ``VS(B_i, m)`` via the node's light client: the root must belong to
   a sufficiently confirmed source header (line 7);
2. ``VP(V ↦ m)``: the proof bundle must reconstruct ``m`` (line 9) —
   1 and 2 are one call to the verifier of :mod:`repro.core.proofs`,
   whose canonical storage tree becomes the recreated contract's live
   trie when both chains share a tree flavour;
3. abort unless the proven ``L_c`` equals ``B_j`` (line 5) — read from
   the verified leaf, the only place the bundle carries it;
4. abort stale bundles: an existing local record with a move nonce
   ``>=`` the proven one means this state was already
   recreated here (or superseded) — the replay attack of Fig. 2;
5. recreate the record from the decoded leaf (not the bundle's copies of
   its fields), the storage via SSTORE (paying gas per slot) and the code
   (paying CREATE + code deposit on Ethereum-flavoured chains when the
   code is not already on-chain);
6. run the custom ``moveFinish()`` hook (line 13).

Any client may submit Move2 — the protocol needs no 2PC, and a client
crash between the two transactions leaves a move any third party can
complete (Section III-B).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Tuple

from repro.core.proofs import ContractStateProof
from repro.core.registry import ChainRegistry
from repro.crypto.keys import Address
from repro.errors import MoveError, ProofError, ReplayError, UnknownRootError
from repro.merkle.protocol import AuthenticatedTree
from repro.runtime.context import TxContext
from repro.runtime.runtime import Runtime
from repro.statedb.state import ContractLeaf
from repro.telemetry.tracer import current_span

if TYPE_CHECKING:
    # Annotations only: ``repro.chain`` imports this module (its
    # executor applies Moves), so importing it back here at load time
    # would make ``repro.core`` unable to be a process's first import.
    from repro.chain.lightclient import LightClient
    from repro.chain.params import ChainParams


def apply_move1(
    ctx: TxContext,
    runtime: Runtime,
    contract: Address,
    target_chain: int,
    sender: Address,
) -> None:
    """Execute Move1 at the source chain (Algorithm 1, lines 1–3)."""
    state = runtime.state
    record = state.contract(contract)
    if record is None:
        raise MoveError(f"no contract at {contract}")
    if record.location != state.chain_id:
        raise MoveError(
            f"contract {contract} is not active here (L_c = {record.location})"
        )
    if target_chain == state.chain_id:
        raise MoveError("target blockchain is the current one")

    # Custom guard first (line 2): the developer's moveTo may revert.
    # Raw bytecode contracts have no such hook: they move themselves by
    # executing OP_MOVE inside a regular call, so a Move1 transaction
    # against them is meaningless.
    if not runtime._hook(ctx, contract, "move_to", (target_chain,), sender):
        raise MoveError("bytecode contracts move via their own OP_MOVE, not Move1")

    # OP_MOVE (line 3): L_c <- B_j, plus the move-nonce bump that makes
    # this locked snapshot unique among the contract's residencies.
    ctx.charge(ctx.meter.schedule.move_op)
    state.lock(contract, target_chain, ctx.env.height)
    current_span().event("move1.locked", target_chain=target_chain)


def validate_move2(
    state,
    bundle: ContractStateProof,
    light_client: LightClient,
    source_params: ChainParams,
    proof_bytes: int,
) -> Tuple[ContractLeaf, AuthenticatedTree]:
    """All Move2 abort conditions (Algorithm 1, lines 5–10 + replay).

    Each refusal has its own type.  A bundle from this chain, or one
    whose proven ``L_c`` names another chain, is a
    :class:`~repro.errors.MoveError`; a stale move nonce is a
    :class:`~repro.errors.ReplayError` (a ``MoveError`` subclass).  A
    root that fails ``VS`` is an :class:`~repro.errors.UnknownRootError`
    and any other ``VP`` failure a :class:`~repro.errors.ProofError`;
    those two are ``TransactionAborted`` but not ``MoveError``
    subclasses, because proofs are refused outside any Move too.  When
    the bundle is acceptable, returns the proven leaf and the canonical
    storage tree ``VP`` rebuilt (in the source chain's flavour).
    ``proof_bytes`` is ``bundle.size_bytes()``, which the caller has
    already charged for.
    """
    if bundle.source_chain == state.chain_id:
        raise MoveError("source and target chains are the same")
    try:
        leaf, tree = bundle.verify_against_root(light_client, source_params.tree_factory)
    except UnknownRootError:
        raise
    except ProofError as exc:
        raise ProofError("proof bundle fails verification (VP failed)") from exc
    if leaf.location != state.chain_id:
        raise MoveError(
            f"contract is being moved to chain {leaf.location}, not here "
            f"({state.chain_id})"
        )
    current_span().event(
        "move2.vs_ok", source_chain=bundle.source_chain, height=bundle.proof_height
    )
    current_span().event("move2.vp_ok", proof_bytes=proof_bytes)
    existing = state.contract(bundle.contract)
    if existing is not None and existing.move_nonce >= leaf.move_nonce:
        raise ReplayError(
            f"stale move: local move nonce {existing.move_nonce} >= "
            f"proven {leaf.move_nonce} (replay prevented)"
        )
    current_span().event("move2.nonce_ok", move_nonce=leaf.move_nonce)
    return leaf, tree


def apply_move2(
    ctx: TxContext,
    runtime: Runtime,
    bundle: ContractStateProof,
    light_client: LightClient,
    registry: ChainRegistry,
    sender: Address,
) -> None:
    """Execute Move2 at the target chain (Algorithm 1, lines 4–13)."""
    state = runtime.state
    source_params = registry.params_for(bundle.source_chain)

    # Verifying the Merkle proof costs gas proportional to its size (a
    # slot value without a length is charged as empty; VP refuses it).
    try:
        proof_bytes = bundle.size_bytes()
    except TypeError:
        proof_bytes = 0
    ctx.charge(ctx.meter.schedule.proof_verification(proof_bytes))
    leaf, tree = validate_move2(state, bundle, light_client, source_params, proof_bytes)

    if state.contract(bundle.contract) is None:
        # Recreating the contract pays what a deployment of its code pays.
        runtime._charge_creation(ctx, leaf.code_hash, len(bundle.code))
        state.create_contract(
            bundle.contract,
            leaf.code_hash,
            bundle.code,
            location=state.chain_id,
            move_nonce=leaf.move_nonce,
            balance=leaf.balance,
        )
    else:
        # The contract lived here before: the stale record becomes the
        # active copy again (the bulk load below replaces its storage).
        state.reactivate(bundle.contract, leaf.move_nonce, leaf.balance)

    # Line 12: SSTORE every proven slot, at full storage-write cost.
    # The slots are bulk-loaded in one journaled step: the canonical
    # tree VP built becomes the target's live storage trie (rebuilt once
    # in this chain's flavour if the source's differs), so nothing is
    # rebuilt per write.
    schedule = ctx.meter.schedule
    for _ in bundle.storage:
        ctx.charge(schedule.sstore_set)
    state.load_storage(bundle.contract, tree)
    current_span().event("move2.storage_replayed", slots=len(bundle.storage))

    # Line 13: the developer's moveFinish hook.  Raw bytecode contracts
    # have none — their post-move logic, if any, runs inside their own
    # code on the next call.
    if runtime._hook(ctx, bundle.contract, "move_finish", (), sender):
        current_span().event("move2.move_finish")
