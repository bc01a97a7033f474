"""Exception hierarchy for the Move-protocol reproduction.

Every error raised by the library derives from :class:`ReproError` so
applications can catch library failures with a single ``except`` clause.
Errors that abort a transaction inside the execution environment derive
from :class:`TransactionAborted`; the chain converts them into failed
receipts rather than letting them escape the block-execution loop.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class TransactionAborted(ReproError):
    """Base class for errors that abort the executing transaction."""


class Revert(TransactionAborted):
    """Raised by ``require(...)`` or explicit reverts inside contracts."""


class OutOfGas(TransactionAborted):
    """The transaction's gas allowance was exhausted."""


class ContractLocked(TransactionAborted):
    """A transaction tried to mutate a contract whose ``L_c`` points
    to another blockchain (it was moved away via Move1)."""


class MoveError(TransactionAborted):
    """A Move1/Move2 transaction violated the Move protocol rules."""


class ReplayError(MoveError):
    """A Move2 carried a stale move-nonce (replay attack, paper Fig. 2)."""


class ProofError(TransactionAborted):
    """A Merkle proof failed to verify (``VP`` returned false).

    Aborts the carrying Move2 transaction when raised during execution;
    client-side proof construction raises it too (callers catch it
    directly there)."""


class UnknownRootError(ProofError):
    """``VS(B, m)`` failed: the Merkle root is not known to be a valid,
    sufficiently-confirmed root of the source blockchain."""


class VMError(TransactionAborted):
    """Base class for low-level virtual-machine faults."""


class StackUnderflow(VMError):
    """A VM instruction popped more items than the stack holds."""


class StackOverflow(VMError):
    """The VM stack exceeded its maximum depth."""


class InvalidOpcode(VMError):
    """The VM met an undefined opcode byte."""


class InvalidJump(VMError):
    """A JUMP/JUMPI landed on a non-JUMPDEST position."""


class CodeNotFound(ReproError):
    """A contract referenced a code hash absent from the code registry."""


class StateError(ReproError):
    """Inconsistent or missing world-state entries."""


class SimulationError(ReproError):
    """Misuse of the discrete-event simulator."""


class InvariantViolation(ReproError):
    """A cross-chain protocol invariant failed during simulation.

    Raised by :class:`~repro.faults.invariants.InvariantChecker` the
    instant a simulated block leaves the system in a state the paper's
    safety argument forbids (dual mutability, a move-nonce regression,
    pegged-supply inflation, or a commitment-root mismatch)."""


class FaultPlanError(ReproError):
    """A fault schedule is malformed or targets an unknown component."""


class AssemblerError(ReproError):
    """The VM assembler met an unknown mnemonic or malformed operand."""


class ConfigError(ReproError):
    """Invalid static configuration (:class:`~repro.chain.params.ChainParams`
    fields, gateway limits) — raised at construction time with an
    actionable message instead of failing deep inside block production."""


class GatewayError(ReproError):
    """Base class for request-gateway failures.

    Every gateway rejection carries a machine-readable ``code`` so
    programmatic clients can branch on the reason without parsing the
    message (the string message stays human-oriented).
    """

    #: machine-readable reason code; subclasses override it and the
    #: constructor can specialize it per instance
    code = "gateway_error"

    def __init__(self, message: str = "", *, code: str = None):
        super().__init__(message)
        if code is not None:
            self.code = code

    def to_dict(self) -> dict:
        """The wire shape of a rejection: ``{"code", "message"}``."""
        return {"code": self.code, "message": str(self)}


class Overloaded(GatewayError):
    """The gateway shed the request under load (backpressure).

    The base of the shed taxonomy: admission queues at their bound
    (:class:`ShedByClass`) and rate limiting (:class:`RateLimited`) both
    derive from it, so ``except Overloaded`` catches every shed."""

    code = "overloaded"


class ShedByClass(Overloaded):
    """The bounded admission queue shed work, attributed to the
    priority class and client that actually lost their slot.

    With classed admission (docs/SERVING.md) a full queue does not
    simply refuse the newcomer: a higher-class arrival evicts the most
    recent entry of the lowest backlogged class instead, so the victim
    of a shed is not necessarily the enqueuer.  ``shed_class`` /
    ``shed_client`` name the entry that was actually dropped and
    ``chain_id`` the queue it was dropped from — accounting follows the
    victim, never the trigger.  The wire code stays ``"queue_full"``
    so existing clients keep branching correctly.
    """

    code = "queue_full"

    def __init__(
        self,
        message: str = "",
        *,
        code: str = None,
        shed_class: str = None,
        shed_client: str = None,
        chain_id: int = None,
    ):
        super().__init__(message, code=code)
        #: label of the priority class that lost the slot ("move" /
        #: "view" / "bulk"), or None for un-classed queues
        self.shed_class = shed_class
        #: client whose entry was dropped (may differ from the caller)
        self.shed_client = shed_client
        self.chain_id = chain_id

    def to_dict(self) -> dict:
        """Wire shape; carries the victim attribution when known."""
        payload = super().to_dict()
        if self.shed_class is not None:
            payload["shed_class"] = self.shed_class
        return payload


class RateLimited(Overloaded):
    """The client exceeded its token-bucket submission rate."""

    code = "rate_limited"


class RequestTimeout(GatewayError):
    """A gateway request missed its deadline (the transaction may still
    execute later — retry with the same idempotency key to reattach)."""

    code = "timeout"


class UnknownChainError(GatewayError):
    """A request targeted a chain id the node does not serve."""

    code = "unknown_chain"


class InvalidRequest(GatewayError):
    """A malformed request rejected at the gateway boundary (raw
    ``KeyError``/``ValueError``/``TypeError`` escapes are mapped here so
    clients only ever see :class:`ReproError` subclasses)."""

    code = "invalid_request"


class NotAViewError(InvalidRequest):
    """A read-only query named a method that is not ``@view``.

    Queries (``Chain.view`` and every read surface built on it) run
    unsigned, unmetered and outside any transaction, so they may only
    dispatch ``@view`` methods; a mutating external or a private helper
    is refused by name instead of run."""

    code = "not_a_view"


class ReadOnlyReplicaError(ContractLocked, GatewayError):
    """A write targeted a read-only replica (mirror) of a contract.

    Mirrors extend the paper's single-mutability invariant I1: a mirror
    is *never* the active copy, so any mutating call against one is a
    protocol violation rather than a transient condition.  Derives from
    :class:`ContractLocked` (inside a block it aborts the transaction
    like any write against a non-active copy) and from
    :class:`GatewayError` (at the serving boundary it is a typed
    rejection carrying a machine-readable code)."""

    code = "read_only_replica"


class ReplicaUnavailable(GatewayError):
    """A read targeted a replica that cannot currently serve.

    Raised when a mirror is halted (its last verified update sits on a
    branch the local light client no longer considers canonical),
    tombstoned (the source contract is mid-move or moved away), or has
    not completed its initial sync.  Replicas fail *unavailable*, never
    stale: a reader that cannot be given state within the staleness
    bound gets this typed error instead of orphaned or torn data."""

    code = "replica_unavailable"
