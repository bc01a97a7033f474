"""Futures for gateway requests on a discrete-event clock.

There are no threads to block, so "awaiting" a request means holding a
handle that the gateway resolves as simulation events fire.  A
:class:`RequestHandle` tracks one transaction from admission to its
receipt; a :class:`MoveHandle` tracks a whole cross-chain move (Move1 →
confirmation wait → proof → Move2 → completions) and resolves to the
same :class:`~repro.ibc.bridge.MovePhases` record the lockstep bridge
produces, so Fig. 8-style phase analysis works identically on served
moves.

Gateway-level failures (shed, rate limit, timeout, malformed request)
are stored as typed :class:`~repro.errors.GatewayError` instances and
re-raised by :meth:`RequestHandle.result` — callers never see a bare
``KeyError`` or a stringly-typed rejection.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Tuple

from repro.errors import GatewayError
from repro.statedb.receipts import Receipt
from repro.telemetry.phases import MOVE_STAGES

#: request lifecycle states
PENDING = "pending"      # created; not yet admitted (e.g. in network transit)
QUEUED = "queued"        # admitted into a gateway queue (or parked)
SUBMITTED = "submitted"  # flushed into the chain's mempool
CONFIRMED = "confirmed"  # executed in a block; receipt available
FAILED = "failed"        # gateway-level failure; typed error available


class RequestHandle:
    """One submitted transaction's future."""

    __slots__ = (
        "chain_id", "client_id", "idempotency_key", "status", "tx_id",
        "receipt", "error", "admitted_at", "resolved_at", "_callbacks",
        "_late_callbacks", "_node",
    )

    def __init__(
        self,
        chain_id: int,
        client_id: str = "",
        idempotency_key: Optional[str] = None,
    ):
        self.chain_id = chain_id
        self.client_id = client_id
        self.idempotency_key = idempotency_key
        self.status = PENDING
        self.tx_id: Optional[str] = None
        self.receipt: Optional[Receipt] = None
        self.error: Optional[GatewayError] = None
        self.admitted_at: Optional[float] = None
        self.resolved_at: Optional[float] = None
        # Tuples, rebuilt on registration: most handles never get a
        # callback, and the shared empty tuple costs them nothing.
        self._callbacks: Tuple[Callable[["RequestHandle"], None], ...] = ()
        self._late_callbacks: Tuple[Callable[["RequestHandle"], None], ...] = ()
        #: bound by the gateway at admission; lets ``wait`` drive the sim
        self._node = None

    # -- observation ---------------------------------------------------

    @property
    def done(self) -> bool:
        """Resolved, one way or the other."""
        return self.status in (CONFIRMED, FAILED)

    @property
    def ok(self) -> bool:
        """Executed *and* the transaction itself succeeded."""
        return self.status == CONFIRMED and bool(self.receipt and self.receipt.success)

    def result(self) -> Receipt:
        """The receipt; raises the typed gateway error on failure.

        A :class:`GatewayError` with code ``"pending"`` is raised when
        the handle has not resolved yet — drive the node (or use
        :meth:`Client.wait`) before asking for the result.
        """
        if self.error is not None:
            raise self.error
        if not self.done:
            raise GatewayError(
                f"request still {self.status}; run the node until handle.done",
                code="pending",
            )
        return self.receipt

    def on_done(self, callback: Callable[["RequestHandle"], None]) -> None:
        """Invoke ``callback(handle)`` at resolution (immediately if done)."""
        if self.done:
            callback(self)
            return
        self._callbacks += (callback,)

    def wait(self, timeout: Optional[float] = None) -> Receipt:
        """Drive the node until this handle resolves; return the receipt.

        ``timeout`` bounds the *simulated* driving from now; it composes
        with the gateway's admission deadline — whichever fires first
        wins, and either way the caller gets a typed
        :class:`~repro.errors.RequestTimeout` (the gateway's from
        :meth:`result`, this one raised directly).  Only handles that
        went through a gateway can wait (the gateway binds the node at
        admission).
        """
        return _wait(self, timeout)

    # -- resolution (gateway-internal) ---------------------------------

    def _settle(self) -> None:
        callbacks, self._callbacks = self._callbacks, ()
        for callback in callbacks:
            callback(self)

    def _resolve(self, receipt: Receipt, now: Optional[float] = None) -> None:
        if self.done:
            return
        self.status = CONFIRMED
        self.receipt = receipt
        self.resolved_at = now
        self._settle()

    def _fail(self, error: GatewayError, now: Optional[float] = None) -> None:
        if self.done:
            return
        self.status = FAILED
        self.error = error
        self.resolved_at = now
        self._settle()

    def _record_late(self, receipt: Receipt, now: Optional[float] = None) -> None:
        """Attach the receipt that arrived *after* this handle already
        failed with a timeout.  The handle stays FAILED (its caller saw
        the typed error), but the receipt becomes observable and
        idempotent retries reattach to it via :meth:`on_late_receipt`."""
        if self.receipt is not None:
            return
        self.receipt = receipt
        self.resolved_at = now
        callbacks, self._late_callbacks = self._late_callbacks, ()
        for callback in callbacks:
            callback(self)

    def on_late_receipt(self, callback: Callable[["RequestHandle"], None]) -> None:
        """Invoke ``callback(handle)`` once a receipt is available for a
        timed-out request (immediately if it already arrived)."""
        if self.receipt is not None:
            callback(self)
            return
        self._late_callbacks += (callback,)

    def _mirror(self, original: "RequestHandle") -> None:
        """Make this handle track ``original`` (idempotent retry: the
        retry attaches to the first submission's outcome)."""
        self.tx_id = original.tx_id
        # Only pre-copy in-flight states; terminal ones must go through
        # _resolve/_fail below so the receipt/error lands with them.
        if original.status in (QUEUED, SUBMITTED):
            self.status = original.status

        def copy(src: "RequestHandle") -> None:
            self.tx_id = src.tx_id
            if src.error is not None:
                self._fail(src.error, src.resolved_at)
            else:
                self._resolve(src.receipt, src.resolved_at)

        original.on_done(copy)


class MoveHandle:
    """One cross-chain move's future (the served-path Fig. 8 record).

    Resolves to a :class:`~repro.ibc.bridge.MovePhases`; protocol-level
    failures (a reverted Move1, a stale proof) are recorded inside the
    phases (``success`` / ``error``) exactly like the bridge records
    them, while *gateway*-level failures (a shed mid-move, an unknown
    chain) raise from :meth:`result` as typed errors.
    """

    #: coarse progress states, in order: the driver's stages, then the
    #: two terminal ones
    STAGES = (*MOVE_STAGES, "done", "failed")

    def __init__(self, phases: Any, idempotency_key: Optional[str] = None):
        #: the live MovePhases record (fills in as the simulation runs)
        self.phases = phases
        self.idempotency_key = idempotency_key
        self.stage = "move1"
        self.error: Optional[GatewayError] = None
        self._callbacks: List[Callable[["MoveHandle"], None]] = []
        self._stage_callbacks: List[Callable[[str], None]] = []
        #: stages already traversed, in order (subscriptions replay these)
        self.stage_history: List[str] = ["move1"]
        #: bound by the gateway at admission; lets ``wait`` drive the sim
        self._node = None

    @property
    def done(self) -> bool:
        return self.stage in ("done", "failed")

    @property
    def ok(self) -> bool:
        """Finished and the protocol-level move succeeded."""
        return self.stage == "done" and self.phases.success

    def result(self) -> Any:
        """The final :class:`MovePhases`; raises typed gateway errors."""
        if self.error is not None:
            raise self.error
        if not self.done:
            raise GatewayError(
                f"move still in stage {self.stage!r}; run the node until handle.done",
                code="pending",
            )
        return self.phases

    def on_done(self, callback: Callable[["MoveHandle"], None]) -> None:
        """Invoke ``callback(handle)`` at resolution (immediately if done)."""
        if self.done:
            callback(self)
            return
        self._callbacks.append(callback)

    def on_stage(self, callback: Callable[[str], None]) -> None:
        """Invoke ``callback(stage)`` for every stage this move has
        already traversed (replayed in order) and every future
        transition, terminal ``done``/``failed`` included.  This is the
        hook :meth:`~repro.gateway.gateway.Gateway.watch_move` pushes
        subscription events from."""
        for stage in self.stage_history:
            callback(stage)
        if not self.done:
            self._stage_callbacks.append(callback)

    def wait(self, timeout: Optional[float] = None) -> Any:
        """Drive the node until the move resolves; return its
        :class:`~repro.ibc.bridge.MovePhases`.  ``timeout`` bounds the
        simulated driving and composes with per-request deadlines the
        same way :meth:`RequestHandle.wait` does."""
        return _wait(self, timeout)

    # -- resolution (gateway-internal) ---------------------------------

    def _advance(self, stage: str) -> None:
        if not self.done:
            self.stage = stage
            self._note_stage(stage)

    def _note_stage(self, stage: str) -> None:
        self.stage_history.append(stage)
        for callback in list(self._stage_callbacks):
            callback(stage)

    def _settle(self) -> None:
        self._note_stage(self.stage)
        self._stage_callbacks = []
        callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def _finish(self) -> None:
        if self.done:
            return
        self.stage = "done"
        self._settle()

    def _fail(self, error: Optional[GatewayError] = None) -> None:
        if self.done:
            return
        self.stage = "failed"
        self.error = error
        self._settle()


def _wait(handle, timeout: Optional[float]):
    """Shared driver behind both handles' ``wait``."""
    node = handle._node
    if node is None:
        raise GatewayError(
            "handle is not bound to a node (it never went through a "
            "gateway); drive the simulation yourself",
            code="pending",
        )
    from repro.errors import RequestTimeout

    deadline = None if timeout is None else node.now + timeout
    resolved = node.run_until(lambda: handle.done, max_time=deadline)
    if not resolved:
        raise RequestTimeout(
            f"handle unresolved after timeout={timeout}s of simulated driving"
        )
    return handle.result()
