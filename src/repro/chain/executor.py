"""Transaction execution against the world state.

One :class:`TransactionExecutor` per chain.  Every transaction runs
inside a journal snapshot: aborts (revert, out of gas, locked contract,
Move protocol violations) roll the state back exactly and yield a
failed receipt — the chain never crashes on bad transactions.  The
transaction is the outermost journal scope: once its receipt is
settled the journal is dropped, success or not.

Gas categories: each transaction's charges land in a category chosen
from its kind (``move1`` / ``move2`` / ``execution``) or overridden by
``tx.meta["gas_category"]`` — how the Fig. 8/9 harness attributes the
``complete`` phase.
"""

from __future__ import annotations

from typing import Optional

from repro.chain.lightclient import LightClient
from repro.chain.tx import (
    BytecodeCallPayload,
    CallPayload,
    DeployBytecodePayload,
    DeployPayload,
    Move1Payload,
    Move2Payload,
    Transaction,
    TransferPayload,
)
from repro.core.move import apply_move1, apply_move2
from repro.core.registry import ChainRegistry
from repro.crypto.hashing import keccak_code
from repro.crypto.keys import Address
from repro.errors import Revert, TransactionAborted
from repro.runtime.context import BlockEnv
from repro.runtime.runtime import Runtime
from repro.statedb.receipts import Receipt
from repro.telemetry import Telemetry
from repro.telemetry.tracer import NULL_SPAN, pop_span, push_span
from repro.vm.gas import GasMeter

#: Per-transaction gas allowance; generous so only runaway transactions
#: (or deliberately tight tests) hit it.
DEFAULT_TX_GAS_LIMIT = 50_000_000


class TransactionExecutor:
    """Executes signed transactions for one chain."""

    #: where fees accumulate (stands in for the proposer/miner reward
    #: flow; one well-known sink address per chain)
    FEE_POOL = Address(b"\xfe" * 20)

    def __init__(
        self,
        runtime: Runtime,
        light_client: LightClient,
        registry: ChainRegistry,
        verify_signatures: bool = True,
        gas_price: int = 0,
        telemetry: Optional[Telemetry] = None,
        chain_id: int = 0,
    ):
        self.runtime = runtime
        self.light_client = light_client
        self.registry = registry
        self.verify_signatures = verify_signatures
        self.tx_gas_limit = DEFAULT_TX_GAS_LIMIT
        self.gas_price = gas_price
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self.chain_id = chain_id
        metrics = self.telemetry.metrics
        self._m_txs_ok = metrics.counter("chain_txs_total", chain=chain_id, status="ok")
        self._m_txs_failed = metrics.counter(
            "chain_txs_total", chain=chain_id, status="failed"
        )
        self._m_tx_gas = metrics.histogram("chain_tx_gas", chain=chain_id)

    def _charge_fee(self, sender, gas_used: int) -> int:
        """Deduct the gas fee (EVM semantics: failed transactions pay
        too).  The deduction is clamped to the sender's balance and to
        what the chain's fee pool, where fees accrue, can still hold."""
        if not self.gas_price:
            return 0
        state = self.runtime.state
        headroom = (1 << 256) - 1 - state.balance_of(self.FEE_POOL)
        fee = min(gas_used * self.gas_price, state.balance_of(sender), headroom)
        if fee:
            state.sub_balance(sender, fee)
            state.add_balance(self.FEE_POOL, fee)
        return fee

    def _category(self, tx: Transaction) -> str:
        override = tx.meta.get("gas_category") if tx.meta else None
        if override:
            return override
        kind = type(tx.payload)
        if kind is Move1Payload:
            return "move1"
        if kind is Move2Payload:
            return "move2"
        return "execution"

    def execute(self, tx: Transaction, env: BlockEnv) -> Receipt:
        """Run one transaction; always returns a receipt, stamped with
        ``env``'s height and time.

        When the transaction carries a trace context (``tx.meta``), its
        execution becomes a ``tx.exec`` span of that trace and is made
        the *active* span, so Move-protocol internals (``VS`` / ``VP``
        / nonce / storage replay events) attach to it without plumbing.
        """
        span = NULL_SPAN
        if tx.meta:
            span = self.telemetry.tracer.span_from_meta(
                "tx.exec",
                tx.meta,
                chain=self.chain_id,
                height=env.height,
                kind=type(tx.payload).__name__,
            )
        traced = span is not NULL_SPAN
        if traced:
            push_span(span)
        try:
            receipt = self._execute_inner(tx, env)
        finally:
            if traced:
                pop_span()
        if receipt.success:
            self._m_txs_ok.inc()
        else:
            self._m_txs_failed.inc()
        self._m_tx_gas.observe(receipt.gas_used)
        if traced:
            if receipt.success:
                span.end(success=True, gas=receipt.gas_used)
            else:
                span.end(success=False, gas=receipt.gas_used, error=receipt.error)
        return receipt

    def _execute_inner(self, tx: Transaction, env: BlockEnv) -> Receipt:
        state = self.runtime.state
        schedule = self.runtime.schedule
        meter = GasMeter(self.tx_gas_limit, schedule)
        category = self._category(tx)
        snap = state.snapshot()
        try:
            if self.verify_signatures and not tx.verify():
                raise Revert("invalid transaction signature")
            meter.charge(schedule.tx_base, category)
            payload = tx.payload
            if type(payload) is TransferPayload:
                # Runs no contract code, so it needs no TxContext.
                self.runtime._transfer_value(tx.sender, payload.to, payload.amount)
                result, logs = None, ()
            else:
                ctx = self.runtime.make_context(tx.sender, env, meter, category)
                ctx.light_client = self.light_client  # enable the proof builtin
                result = self._dispatch(tx, ctx)
                logs = tuple(ctx.events)
            fee = self._charge_fee(tx.sender, meter.used)
            # The meter is this transaction's alone: its split goes to
            # the receipt as it is.
            receipt = Receipt(
                tx.tx_id, True, meter.used, None, result, logs,
                env.height, env.timestamp, meter.by_category, fee,
            )
        except TransactionAborted as exc:
            state.revert(snap)
            # Failed transactions pay for the gas they burned (the fee
            # lands outside the reverted journal region).
            fee = self._charge_fee(tx.sender, meter.used)
            receipt = Receipt(
                tx.tx_id, False, meter.used, f"{type(exc).__name__}: {exc}", None, (),
                env.height, env.timestamp, meter.by_category, fee,
            )
        except Exception as exc:  # noqa: BLE001 — contract-fault boundary
            # EVM semantics: *any* fault inside contract execution
            # (malformed arguments, a bug in contract code, a value the
            # state refuses, ...) aborts the transaction — a hostile
            # transaction must never crash the node.  Each one is
            # counted by its exception type.
            state.revert(snap)
            kind = type(exc).__name__
            self.telemetry.metrics.counter(
                "chain_tx_faults_total", chain=self.chain_id, kind=kind
            ).inc()
            fee = self._charge_fee(tx.sender, meter.used)
            receipt = Receipt(
                tx.tx_id, False, meter.used, f"ContractFault({kind}): {exc}", None, (),
                env.height, env.timestamp, meter.by_category, fee,
            )
        # The transaction is the outermost journal scope: with its
        # receipt settled nothing in it is undone any more, so its undo
        # closures go now rather than at the block's commit.
        state.drop_journal()
        return receipt

    def _dispatch(self, tx: Transaction, ctx) -> object:
        """Map a payload that executes contract code (every kind but a
        transfer) to its runtime step, run in ``ctx``."""
        payload = tx.payload
        runtime = self.runtime
        kind = type(payload)
        if kind is DeployPayload:
            cls = runtime._registered(payload.code_hash)
            return runtime.deploy(ctx, cls, payload.args, tx.sender, payload.salt, payload.value)
        if kind is CallPayload:
            return runtime.call(
                ctx, payload.target, payload.method, payload.args, tx.sender, payload.value
            )
        if kind is DeployBytecodePayload:
            code = payload.code
            return runtime._create(
                ctx, tx.sender, code, keccak_code(code), payload.salt, payload.value
            )
        if kind is BytecodeCallPayload:
            # A bytecode call names the VM as its method.
            return runtime.call(
                ctx, payload.target, runtime.machine, payload.calldata, tx.sender, payload.value
            )
        if kind is Move1Payload:
            apply_move1(ctx, runtime, payload.contract, payload.target_chain, tx.sender)
            return None
        if kind is Move2Payload:
            apply_move2(
                ctx, runtime, payload.bundle, self.light_client, self.registry, tx.sender
            )
            return None
        raise Revert(f"unknown payload type {type(payload).__name__}")
