"""The contract runtime: deployment, dispatch, lock enforcement.

This is the high-level analogue of the modified EVM the paper runs:
every entry point charges the gas schedule, and — the Move protocol's
key invariant — **any non-view call to a contract whose ``L_c`` points
to another blockchain aborts** (:class:`~repro.errors.ContractLocked`)
before it runs — the world state refuses its writes anyway — while
``@view`` methods remain callable because reads of moved-away state are
explicitly allowed (Section III-B).
"""

from __future__ import annotations

from typing import Any, Optional, Tuple, Type

from repro.crypto.keys import Address, contract_address, create2_address
from repro.errors import NotAViewError, Revert
from repro.runtime.context import BlockEnv, Msg, TxContext
from repro.runtime.contract import Contract
from repro.runtime.registry import code_for, lookup_code
from repro.statedb.state import WorldState
from repro.vm.gas import GasMeter, GasSchedule

MAX_CALL_DEPTH = 64

#: the ``msg.sender`` a read-only query runs under
VIEW_SENDER = Address(b"\x00" * 20)


class Runtime:
    """Binds a world state to a gas schedule and dispatches calls."""

    def __init__(self, state: WorldState, schedule: GasSchedule):
        self.state = state
        self.schedule = schedule

    # ------------------------------------------------------------------
    # Context plumbing
    # ------------------------------------------------------------------

    def make_context(
        self,
        origin: Address,
        env: BlockEnv,
        meter: Optional[GasMeter] = None,
        category: str = "execution",
    ) -> TxContext:
        """Create a transaction context bound to this runtime."""
        ctx = TxContext(
            state=self.state,
            env=env,
            meter=meter if meter is not None else GasMeter(schedule=self.schedule),
            origin=origin,
            category=category,
        )
        ctx.runtime = self  # type: ignore[attr-defined]
        return ctx

    # ------------------------------------------------------------------
    # Deployment
    # ------------------------------------------------------------------

    def deploy(
        self,
        ctx: TxContext,
        cls: Type[Contract],
        args: Tuple[Any, ...] = (),
        sender: Optional[Address] = None,
        salt: Optional[int] = None,
        value: int = 0,
    ) -> Address:
        """Create a contract; returns its (chain-id-qualified) address.

        ``salt=None`` derives a CREATE-style address from the creator's
        nonce; an integer salt derives a CREATE2-style address — the
        mechanism SCoin's origin attestation builds on (Section V-A).
        """
        sender = sender if sender is not None else ctx.msg.sender
        code = code_for(cls)
        ctx.charge(self.schedule.create, "create")
        # Ethereum-flavoured chains charge the per-byte deposit on every
        # creation, even of code already on-chain (paper Section VIII:
        # "every recreated contract pays a constant gas based on the
        # size of the moved code").  The schedule's ``code_deposit_dedup``
        # flag enables the optimization the paper points out; Burrow's
        # schedule sets the per-byte cost to 0 outright.
        if not (self.schedule.code_deposit_dedup and self.state.has_code(cls.CODE_HASH)):
            ctx.charge(self.schedule.code_deposit(len(code)), "code_deposit")
        if salt is None:
            # The creator's account nonce doubles as its creation
            # counter (for contract creators the side account record
            # serves only this purpose).
            nonce = self.state.bump_nonce(sender)
            address = contract_address(ctx.env.chain_id, sender, nonce)
        else:
            address = create2_address(ctx.env.chain_id, sender, salt, cls.CODE_HASH)
        self.state.create_contract(address, cls.CODE_HASH, code)
        if value:
            self._transfer_value(sender, address, value)
        instance = cls(ctx, address)
        ctx.push_msg(Msg(sender=sender, value=value))
        try:
            init = getattr(instance, "init", None)
            if callable(init):
                init(*args)
        finally:
            ctx.pop_msg()
        return address

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def call(
        self,
        ctx: TxContext,
        target: Address,
        method: str,
        args: Tuple[Any, ...] = (),
        sender: Optional[Address] = None,
        value: int = 0,
    ) -> Any:
        """Dispatch ``method`` on the contract at ``target``.

        Enforces: external-only dispatch, payable checks, call-depth
        limit, and the Move lock — a non-view call to a contract whose
        ``L_c`` names another chain aborts with :class:`ContractLocked`.
        """
        if ctx.call_depth >= MAX_CALL_DEPTH:
            raise Revert("max call depth exceeded")
        sender = sender if sender is not None else ctx.msg.sender
        ctx.charge(self.schedule.call)
        record = self.state.contract(target)
        if record is None:
            raise Revert(f"no contract at {target}")
        cls = lookup_code(record.code_hash)
        # Registration precomputes ``method -> (fn, is_view, is_payable)``
        # (every class the registry resolves carries its own table).
        entry = cls._RT_DISPATCH.get(method)
        if entry is None:
            raise Revert(f"{cls.__name__} has no external method {method!r}")
        fn, is_view, is_payable = entry
        if record.location != self.state.chain_id and not is_view:
            self.state.refuse_write(target, record)
        if value and not is_payable:
            raise Revert(f"{method!r} is not payable")
        if value:
            self._transfer_value(sender, target, value)
        instance = cls(ctx, target)
        ctx.push_msg(Msg(sender=sender, value=value))
        try:
            return fn(instance, *args)
        finally:
            ctx.pop_msg()

    def view(
        self,
        target: Address,
        method: str,
        args: Tuple[Any, ...] = (),
        env: Optional[BlockEnv] = None,
    ) -> Any:
        """Read-only query from outside a transaction (unmetered).

        Only ``@view`` methods run here: anything else would mutate
        state unsigned, unmetered and outside any transaction, so it
        raises :class:`~repro.errors.NotAViewError`.
        """
        record = self.state.require_contract(target)
        cls = lookup_code(record.code_hash)
        entry = cls._RT_DISPATCH.get(method)
        if entry is None or not entry[1]:
            raise NotAViewError(f"{cls.__name__}.{method} is not a @view method")
        fn = entry[0]
        env = env if env is not None else BlockEnv(self.state.chain_id, 0, 0.0)
        ctx = self.make_context(VIEW_SENDER, env)
        instance = cls(ctx, target)
        ctx.push_msg(Msg(sender=VIEW_SENDER, value=0))
        try:
            return fn(instance, *args)
        finally:
            ctx.pop_msg()

    def bind(self, ctx: TxContext, target: Address) -> Contract:
        """Instantiate a typed view over a deployed contract."""
        record = self.state.require_contract(target)
        cls = lookup_code(record.code_hash)
        return cls(ctx, target)

    # ------------------------------------------------------------------

    def _transfer_value(self, sender: Address, to: Address, value: int) -> None:
        if self.state.balance_of(sender) < value:
            raise Revert(f"insufficient balance for value transfer from {sender}")
        self.state.sub_balance(sender, value)
        self.state.add_balance(to, value)
