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

That sequence is written down once, in :func:`drive_move` — fully
event-driven over the simulator, mirroring a client that listens to
headers of both chains at once (Section III-A); the bridge, the gateway
and the chaos actors each add only how a transaction reaches a chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

from repro.chain.chain import Chain
from repro.chain.tx import Move1Payload, Move2Payload, Transaction, sign_transaction
from repro.crypto.keys import Address, KeyPair
from repro.errors import ProofError
from repro.net.sim import Simulator
from repro.statedb.receipts import Receipt
from repro.telemetry import NULL_SPAN, Telemetry, Tracer
from repro.telemetry.phases import MOVE_STAGES

#: builds the i-th completion transaction, given the mover's keypair
CompletionFactory = Callable[[KeyPair], Transaction]


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
        return (self.move1_included_at or 0.0) - self.started_at

    @property
    def wait_proof_time(self) -> float:
        return (self.proof_ready_at or 0.0) - (self.move1_included_at or 0.0)

    @property
    def move2_time(self) -> float:
        return (self.move2_included_at or 0.0) - (self.proof_ready_at or 0.0)

    @property
    def complete_time(self) -> float:
        if self.completed_at is None or self.move2_included_at is None:
            return 0.0
        return self.completed_at - self.move2_included_at

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


def _when_height(chain: Chain, height: int, action: Callable[[], None]) -> None:
    """Run ``action`` as soon as ``chain`` reaches ``height``."""
    if chain.height >= height:
        action()
        return

    def listener(block, _receipts) -> None:
        if block.height >= height:
            chain.unsubscribe(listener)
            action()

    chain.subscribe(listener)


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
    source_id, target_id = source.chain_id, phases.target_chain
    root = tracer.start_trace("move", source_chain=source_id, target_chain=target_id)
    live = tracer.start_span(MOVE_STAGES["move1"], root, chain=source_id)

    def enter(stage: str, chain_id: int, **attrs) -> None:
        nonlocal live
        live = tracer.start_span(MOVE_STAGES[stage], root, chain=chain_id, **attrs)
        on_stage(stage)

    def submit(chain_id: int, tx: Transaction, on_receipt) -> None:
        tracer.inject(live, tx.meta)
        send(chain_id, tx, on_receipt, lambda error: fail(str(error), error))

    def fail(error: str, rejection: Optional[Exception] = None) -> None:
        phases.success = False
        phases.error = error
        live.end(success=False)
        root.end(success=False, error=error)
        on_done(rejection)

    def succeed() -> None:
        root.end(success=True)
        on_done(None)

    def after_move1(receipt: Receipt) -> None:
        if not receipt.success:
            fail(receipt.error)
            return
        phases.move1_included_at = sim.now
        phases.add_gas(receipt.gas_by_category, "move1")
        inclusion = receipt.block_height
        ready_at = source.proof_ready_height(inclusion)
        live.end(success=True)
        enter("confirm", source_id, ready_height=ready_at)
        # Attribute the header hop that unblocks VS at the target.
        tracer.watch_header(root, source_id, ready_at, observer=target_id)
        _when_height(source, ready_at, lambda: try_move2(inclusion, 0))

    def try_move2(inclusion: int, attempt: int) -> None:
        if attempt == 0:
            phases.proof_ready_at = sim.now
            live.end(success=True)
        enter("proof", source_id)
        try:
            bundle = source.prove_contract_at(phases.contract, inclusion)
        except ProofError as error:
            move2_failed(str(error), inclusion, attempt)
            return
        if live is not NULL_SPAN:  # the size is only a span attribute
            live.end(success=True, proof_bytes=bundle.size_bytes())
        enter("move2", target_id, attempt=attempt)
        move2 = sign_transaction(mover, Move2Payload(bundle=bundle))
        submit(target_id, move2, lambda r: after_move2(r, inclusion, attempt))

    def move2_failed(error: str, inclusion: int, attempt: int) -> None:
        # An unbuildable proof or a Move2 the target refused (its light
        # client does not, or no longer, trust the proven root).
        delay = move2_retry(attempt)
        if delay is None:
            fail(error)
            return
        live.end(success=False)
        sim.schedule(delay, try_move2, inclusion, attempt + 1)

    def after_move2(receipt: Receipt, inclusion: int, attempt: int) -> None:
        if not receipt.success:
            move2_failed(receipt.error, inclusion, attempt)
            return
        phases.move2_included_at = sim.now
        phases.add_gas(receipt.gas_by_category, "move2")
        live.end(success=True)
        if completions is None:
            succeed()
            return
        enter("complete", target_id)
        run_completion(0)

    def run_completion(index: int) -> None:
        if index >= len(completions):
            phases.completed_at = sim.now
            live.end(success=True, txs=len(completions))
            succeed()
            return
        tx = completions[index](mover)
        tx.meta.setdefault("gas_category", "complete")
        submit(target_id, tx, lambda r: after_completion(r, index))

    def after_completion(receipt: Receipt, index: int) -> None:
        if not receipt.success:
            fail(receipt.error)
            return
        phases.add_gas(receipt.gas_by_category, "complete")
        run_completion(index + 1)

    move1 = Move1Payload(contract=phases.contract, target_chain=target_id)
    submit(source_id, sign_transaction(mover, move1), after_move1)


class IBCBridge:
    """Drives cross-chain moves between registered chains."""

    def __init__(
        self,
        sim: Simulator,
        chains: Sequence[Chain],
        submit_latency: float = 0.05,
        telemetry: Optional[Telemetry] = None,
    ):
        self.sim = sim
        self.chains: Dict[int, Chain] = {chain.chain_id: chain for chain in chains}
        self.submit_latency = submit_latency
        if telemetry is None:
            # Inherit the chains' bundle so move traces and chain spans
            # land in the same tracer (experiments share one bundle).
            first = next(iter(self.chains.values()), None)
            telemetry = first.telemetry if first is not None else Telemetry.disabled()
        self.telemetry = telemetry
        metrics = telemetry.metrics
        self._m_moves_ok = metrics.counter("bridge_moves_total", status="ok")
        self._m_moves_failed = metrics.counter("bridge_moves_total", status="failed")
        self._m_move_seconds = metrics.histogram("bridge_move_seconds")

    def chain(self, chain_id: int) -> Chain:
        """The registered chain object for an id."""
        return self.chains[chain_id]

    def _send(self, chain_id: int, tx: Transaction, on_receipt, _on_reject) -> None:
        chain = self.chains[chain_id]
        chain.wait_for(tx.tx_id, on_receipt)
        self.sim.schedule(self.submit_latency, chain.submit, tx)

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

        def done(_rejection) -> None:
            self._m_move_seconds.observe(self.sim.now - phases.started_at)
            (self._m_moves_ok if phases.success else self._m_moves_failed).inc()
            if on_done is not None:
                on_done(phases)

        drive_move(
            self.sim,
            self.telemetry.tracer,
            self.chains[source_id],
            mover,
            phases,
            self._send,
            done,
            completions=completions,
        )
        return phases
