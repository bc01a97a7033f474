"""Client-side choreography of a full cross-chain move.

This is the sequence Section VIII times (Fig. 8) and meters (Fig. 9):

1. **move1** — submit Move1 at the source chain, wait for inclusion;
2. **wait + proof** — wait until the source head is ``p`` blocks past
   the header carrying the Move1 block's state root (plus Burrow's
   one-block root lag), then extract the Merkle proof bundle;
3. **move2** — submit Move2 carrying the bundle at the target chain,
   wait for inclusion;
4. **complete** — any application-level completion transactions at the
   target (SCoin: one transfer; ScalableKitties: breed + giveBirth;
   the Store-N state transfers: none).

That sequence is written down once, as the stages of ``_MoveDriver``,
which :func:`drive_move` starts — fully event-driven over the
simulator, mirroring a client that listens to headers of both chains
at once (Section III-A); the bridge, the gateway and the chaos actors
each add only how a transaction reaches a chain.  A move in flight is
one slotted driver object that the chains and the simulator call back
through bound methods; nothing it holds points back at it, so a
finished move leaves no cyclic garbage for the collector.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from repro.chain.chain import Chain, client_submit
from repro.chain.tx import Move1Payload, Move2Payload, Transaction, sign_transaction
from repro.crypto.keys import Address, KeyPair
from repro.errors import ProofError
from repro.net.sim import Simulator
from repro.statedb.receipts import Receipt
from repro.telemetry import NULL_SPAN, Telemetry, Tracer
from repro.telemetry.phases import MOVE_STAGES

#: builds the i-th completion transaction, given the mover's keypair
CompletionFactory = Callable[[KeyPair], Transaction]

#: simulated seconds from a bridge's send to the chain's mempool
SUBMIT_LATENCY = 0.05


def _lasted(start: Optional[float], end: Optional[float]) -> float:
    """How long a stage took; 0.0 if the move failed before it began
    or before it ended."""
    if start is None or end is None:
        return 0.0
    return end - start


@dataclass
class MovePhases:
    """Timeline and gas breakdown of one cross-chain move."""

    contract: Address
    source_chain: int
    target_chain: int
    started_at: float
    move1_included_at: Optional[float] = None
    proof_ready_at: Optional[float] = None
    move2_included_at: Optional[float] = None
    completed_at: Optional[float] = None
    gas: Dict[str, int] = field(default_factory=dict)
    success: bool = True
    error: Optional[str] = None

    # -- phase durations (Fig. 8's stacked bars) ----------------------

    @property
    def move1_time(self) -> float:
        return _lasted(self.started_at, self.move1_included_at)

    @property
    def wait_proof_time(self) -> float:
        return _lasted(self.move1_included_at, self.proof_ready_at)

    @property
    def move2_time(self) -> float:
        return _lasted(self.proof_ready_at, self.move2_included_at)

    @property
    def complete_time(self) -> float:
        return _lasted(self.move2_included_at, self.completed_at)

    @property
    def total_time(self) -> float:
        end = self.completed_at or self.move2_included_at or self.started_at
        return end - self.started_at

    def add_gas(self, breakdown: Dict[str, int], fallback: str) -> None:
        """Merge a receipt's category split; uncategorized charges and
        create/code_deposit roll up the way Fig. 9 stacks them."""
        for category, amount in breakdown.items():
            if category in ("create", "code_deposit"):
                bucket = "create"
            elif category in ("move1", "move2", "complete"):
                bucket = category
            else:
                bucket = fallback
            self.gas[bucket] = self.gas.get(bucket, 0) + amount


class _HeightListener:
    """A block listener that runs ``action(*args)`` once its chain
    reaches ``height``, then unsubscribes itself."""

    __slots__ = ("chain", "height", "action", "args")

    def __init__(self, chain: Chain, height: int, action: Callable, args: tuple):
        self.chain = chain
        self.height = height
        self.action = action
        self.args = args

    def __call__(self, block, _receipts) -> None:
        if block.height >= self.height:
            self.chain.unsubscribe(self)
            self.action(*self.args)


def _when_height(chain: Chain, height: int, action: Callable, *args) -> None:
    """Run ``action(*args)`` as soon as ``chain`` reaches ``height``."""
    if chain.height >= height:
        action(*args)
    else:
        chain.subscribe(_HeightListener(chain, height, action, args))


class _MoveDriver:
    """One move in flight: the stages of :func:`drive_move` as methods
    over one slotted record.

    The chains' waiters, the height listener and the simulator hold
    bound methods (or lambdas) over the driver and drop them once they
    fire; nothing the driver holds points back at them.  A finished
    move is therefore freed by reference counting, never by the cyclic
    collector.
    """

    __slots__ = (
        "sim",
        "tracer",
        "source",
        "mover",
        "phases",
        "send",
        "on_done",
        "completions",
        "on_stage",
        "move2_retry",
        "root",
        "live",
    )

    def __init__(
        self,
        sim: Simulator,
        tracer: Tracer,
        source: Chain,
        mover: KeyPair,
        phases: MovePhases,
        send: Callable[[int, Transaction, Callable, Callable], None],
        on_done: Callable[[Optional[Exception]], None],
        completions: Optional[Sequence[CompletionFactory]],
        on_stage: Callable[[str], None],
        move2_retry: Callable[[int], Optional[float]],
    ):
        self.sim = sim
        self.tracer = tracer
        self.source = source
        self.mover = mover
        self.phases = phases
        self.send = send
        self.on_done = on_done
        self.completions = completions
        self.on_stage = on_stage
        self.move2_retry = move2_retry
        source_id = source.chain_id
        self.root = tracer.start_trace(
            "move", source_chain=source_id, target_chain=phases.target_chain
        )
        self.live = tracer.start_span(MOVE_STAGES["move1"], self.root, chain=source_id)

    # -- plumbing -----------------------------------------------------

    def enter(self, stage: str, chain_id: int, **attrs) -> None:
        self.live = self.tracer.start_span(
            MOVE_STAGES[stage], self.root, chain=chain_id, **attrs
        )
        self.on_stage(stage)

    def submit(self, chain_id: int, tx: Transaction, on_receipt) -> None:
        self.tracer.inject(self.live, tx.meta)
        self.send(chain_id, tx, on_receipt, self.rejected)

    def rejected(self, error: Exception) -> None:
        self.fail(str(error), error)

    def fail(self, error: str, rejection: Optional[Exception] = None) -> None:
        self.phases.success = False
        self.phases.error = error
        self.live.end(success=False)
        self.root.end(success=False, error=error)
        self.on_done(rejection)

    def succeed(self) -> None:
        self.root.end(success=True)
        self.on_done(None)

    # -- the stages ---------------------------------------------------

    def after_move1(self, receipt: Receipt) -> None:
        if not receipt.success:
            self.fail(receipt.error)
            return
        phases, source = self.phases, self.source
        phases.move1_included_at = self.sim.now
        phases.add_gas(receipt.gas_by_category, "move1")
        inclusion = receipt.block_height
        ready_at = source.proof_ready_height(inclusion)
        self.live.end(success=True)
        self.enter("confirm", source.chain_id, ready_height=ready_at)
        # Attribute the header hop that unblocks VS at the target.
        self.tracer.watch_header(
            self.root, source.chain_id, ready_at, observer=phases.target_chain
        )
        _when_height(source, ready_at, self.try_move2, inclusion, 0)

    def try_move2(self, inclusion: int, attempt: int) -> None:
        if attempt == 0:
            self.phases.proof_ready_at = self.sim.now
            self.live.end(success=True)
        self.enter("proof", self.source.chain_id)
        try:
            bundle = self.source.prove_contract_at(self.phases.contract, inclusion)
        except ProofError as error:
            self.move2_failed(str(error), inclusion, attempt)
            return
        if self.live is not NULL_SPAN:  # the size is only a span attribute
            self.live.end(success=True, proof_bytes=bundle.size_bytes())
        target_id = self.phases.target_chain
        self.enter("move2", target_id, attempt=attempt)
        move2 = sign_transaction(self.mover, Move2Payload(bundle=bundle))
        self.submit(
            target_id,
            move2,
            lambda receipt: self.after_move2(receipt, inclusion, attempt),
        )

    def move2_failed(self, error: str, inclusion: int, attempt: int) -> None:
        # An unbuildable proof or a Move2 the target refused (its light
        # client does not, or no longer, trust the proven root).
        delay = self.move2_retry(attempt)
        if delay is None:
            self.fail(error)
            return
        self.live.end(success=False)
        self.sim.schedule(delay, self.try_move2, inclusion, attempt + 1)

    def after_move2(self, receipt: Receipt, inclusion: int, attempt: int) -> None:
        if not receipt.success:
            self.move2_failed(receipt.error, inclusion, attempt)
            return
        self.phases.move2_included_at = self.sim.now
        self.phases.add_gas(receipt.gas_by_category, "move2")
        self.live.end(success=True)
        if self.completions is None:
            self.succeed()
            return
        self.enter("complete", self.phases.target_chain)
        self.run_completion(0)

    def run_completion(self, index: int) -> None:
        completions = self.completions
        if index >= len(completions):
            self.phases.completed_at = self.sim.now
            self.live.end(success=True, txs=len(completions))
            self.succeed()
            return
        tx = completions[index](self.mover)
        tx.meta.setdefault("gas_category", "complete")
        self.submit(
            self.phases.target_chain,
            tx,
            lambda receipt: self.after_completion(receipt, index),
        )

    def after_completion(self, receipt: Receipt, index: int) -> None:
        if not receipt.success:
            self.fail(receipt.error)
            return
        self.phases.add_gas(receipt.gas_by_category, "complete")
        self.run_completion(index + 1)


def drive_move(
    sim: Simulator,
    tracer: Tracer,
    source: Chain,
    mover: KeyPair,
    phases: MovePhases,
    send: Callable[[int, Transaction, Callable, Callable], None],
    on_done: Callable[[Optional[Exception]], None],
    completions: Optional[Sequence[CompletionFactory]] = (),
    on_stage: Callable[[str], None] = lambda stage: None,
    move2_retry: Callable[[int], Optional[float]] = lambda attempt: None,
) -> None:
    """Move ``phases.contract`` from ``source`` to ``phases.target_chain``,
    filling ``phases`` and one span per :data:`MOVE_STAGES` entry under
    a ``move`` root.

    ``send(chain_id, tx, on_receipt, on_reject)`` is all the driver does
    not know — how a signed transaction reaches a chain: the caller
    arranges for ``on_receipt(receipt)`` once it executed, or
    ``on_reject(error)`` if a typed rejection means it never will.
    ``on_stage`` hears every transition after ``move1``; ``on_done`` the
    end, with the rejection if there was one (else see ``phases``).
    ``completions=None`` skips the completion stage.  ``move2_retry``
    maps a failed attempt to the seconds until Move2 is re-proved and
    re-sent (a stale target view clears once headers flow), or ``None``.
    """
    driver = _MoveDriver(
        sim, tracer, source, mover, phases, send, on_done,
        completions, on_stage, move2_retry,
    )
    move1 = Move1Payload(contract=phases.contract, target_chain=phases.target_chain)
    driver.submit(source.chain_id, sign_transaction(mover, move1), driver.after_move1)


class IBCBridge:
    """Drives cross-chain moves between registered chains."""

    def __init__(
        self,
        sim: Simulator,
        chains: Sequence[Chain],
    ):
        self.sim = sim
        self.chains: Dict[int, Chain] = {chain.chain_id: chain for chain in chains}
        # The chains' bundle, so move traces and chain spans land in the
        # same tracer (experiments share one bundle).
        first = next(iter(self.chains.values()), None)
        self.telemetry = first.telemetry if first is not None else Telemetry.disabled()
        metrics = self.telemetry.metrics
        self._m_moves_ok = metrics.counter("bridge_moves_total", status="ok")
        self._m_moves_failed = metrics.counter("bridge_moves_total", status="failed")
        self._m_move_seconds = metrics.histogram("bridge_move_seconds")

    def chain(self, chain_id: int) -> Chain:
        """The registered chain object for an id."""
        return self.chains[chain_id]

    def _send(self, chain_id: int, tx: Transaction, on_receipt, _on_reject) -> None:
        client_submit(self.sim, self.chains[chain_id], tx, on_receipt, SUBMIT_LATENCY)

    def move_contract(
        self,
        mover: KeyPair,
        contract: Address,
        source_id: int,
        target_id: int,
        completions: Sequence[CompletionFactory] = (),
        on_done: Optional[Callable[[MovePhases], None]] = None,
    ) -> MovePhases:
        """Start a full move; returns the (live) phase record.

        The record fills in as the simulation advances; ``on_done``
        fires when the final completion transaction is included (or on
        the first failure).
        """
        phases = MovePhases(contract, source_id, target_id, self.sim.now)
        drive_move(
            self.sim,
            self.telemetry.tracer,
            self.chains[source_id],
            mover,
            phases,
            self._send,
            lambda _rejection: self._moved(phases, on_done),
            completions=completions,
        )
        return phases

    def _moved(
        self, phases: MovePhases, on_done: Optional[Callable[[MovePhases], None]]
    ) -> None:
        self._m_move_seconds.observe(self.sim.now - phases.started_at)
        (self._m_moves_ok if phases.success else self._m_moves_failed).inc()
        if on_done is not None:
            on_done(phases)
