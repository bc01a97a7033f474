"""The contract runtime: one lifecycle for both code kinds.

This is the analogue of the modified EVM the paper runs, and it owns
both of this repository's backends: a registered Python class runs in
Python, any other code — raw bytecode from
:func:`repro.vm.assembler.assemble` — runs in the VM
(:class:`~repro.vm.machine.Machine`) against the same journaled world
state, through :class:`~repro.runtime.context.StateMachineContext`.
Assumption (b) of the Move protocol, "use the same execution
environment", is about this layer: a bytecode contract moves exactly
like a Python-class one, except that its own code executes ``OP_MOVE``
(it has no ``moveTo``/``moveFinish`` hooks).

What the two kinds share happens once, here:

* **creation** (:meth:`Runtime._create`): CREATE gas and the per-byte
  code deposit (:meth:`Runtime._charge_creation`, which a Move2
  recreation pays too), the CREATE/CREATE2 address, the record, the
  value;
* **entry** (:meth:`Runtime.call`): the ``call`` gas, the record, the
  code kind — looked up once — and the Move lock: **any non-view call
  to a contract whose ``L_c`` points to another blockchain aborts**
  (:class:`~repro.errors.ContractLocked`) before it runs (the world
  state refuses its writes anyway), while ``@view`` methods remain
  callable because reads of moved-away state are explicitly allowed
  (Section III-B);
* **value transfer** (:meth:`Runtime._transfer_value`), also of
  native transfers and of a contract's ``transfer``;
* **the call frame** (:meth:`Runtime._frame`) every piece of Python
  contract code runs in: ``init``, calls, views and the Move hooks.

The executor and the Move protocol reach these steps through the
chain's runtime; they are private so that the runtime's public surface
stays ``deploy`` / ``call`` / ``view`` / ``bind``.
"""

from __future__ import annotations

from typing import Any, Optional, Tuple, Type

from repro.crypto.keys import Address, contract_address, create2_address
from repro.errors import CodeNotFound, NotAViewError, Revert
from repro.runtime.context import BlockEnv, Msg, StateMachineContext, TxContext
from repro.runtime.contract import Contract
from repro.runtime.registry import _REGISTRY, code_for, lookup_code
from repro.statedb.state import ContractRecord, WorldState
from repro.vm.gas import GasMeter, GasSchedule
from repro.vm.machine import Machine

MAX_CALL_DEPTH = 64

#: the ``msg.sender`` a read-only query runs under
VIEW_SENDER = Address(b"\x00" * 20)


class Runtime:
    """Binds a world state to a gas schedule and runs contracts of both
    code kinds in it."""

    def __init__(self, state: WorldState, schedule: GasSchedule):
        self.state = state
        self.schedule = schedule
        #: the VM bytecode contracts run in; a bytecode call names it as
        #: its ``method`` (see :meth:`call`)
        self.machine = Machine(schedule)

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
    # Creation
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
        """Create a Python-class contract and run its ``init``; returns
        its (chain-id-qualified) address.

        ``salt=None`` derives a CREATE-style address from the creator's
        nonce; an integer salt derives a CREATE2-style address — the
        mechanism SCoin's origin attestation builds on (Section V-A).
        """
        sender = sender if sender is not None else ctx.msg.sender
        address = self._create(ctx, sender, code_for(cls), cls.CODE_HASH, salt, value)
        init = getattr(cls, "init", None)
        if callable(init):
            self._frame(ctx, sender, value, init, cls(ctx, address), args)
        return address

    def _create(
        self,
        ctx: TxContext,
        sender: Address,
        code: bytes,
        code_hash: bytes,
        salt: Optional[int],
        value: int,
    ) -> Address:
        """The creation step of both code kinds: charge it, derive the
        address, write the record and move ``value`` into it."""
        self._charge_creation(ctx, code_hash, len(code))
        if salt is None:
            # The creator's account nonce doubles as its creation
            # counter (for contract creators the side account record
            # serves only this purpose).
            nonce = self.state.bump_nonce(sender)
            address = contract_address(ctx.env.chain_id, sender, nonce)
        else:
            address = create2_address(ctx.env.chain_id, sender, salt, code_hash)
        self.state.create_contract(address, code_hash, code)
        if value:
            self._transfer_value(sender, address, value)
        return address

    def _charge_creation(self, ctx: TxContext, code_hash: bytes, code_size: int) -> None:
        """CREATE plus the per-byte code deposit, which a Move2
        recreation pays like a deployment (Fig. 9's hatched bars).

        Ethereum-flavoured chains charge the deposit on every creation,
        even of code already on-chain (paper Section VIII: "every
        recreated contract pays a constant gas based on the size of the
        moved code").  The schedule's ``code_deposit_dedup`` flag
        enables the optimization the paper points out; Burrow's
        schedule sets the per-byte cost to 0 outright.
        """
        ctx.charge(self.schedule.create, "create")
        if not (self.schedule.code_deposit_dedup and self.state.has_code(code_hash)):
            ctx.charge(self.schedule.code_deposit(code_size), "code_deposit")

    @staticmethod
    def _registered(code_hash: Any) -> Type[Contract]:
        """The class a ``DeployPayload`` names by its code hash.  Code
        this chain cannot run is the sender's error, refused like any
        other malformed request (:class:`Revert`), not a contract fault."""
        if type(code_hash) is not bytes:
            raise Revert(f"code hash must be bytes, not {type(code_hash).__name__}")
        try:
            return lookup_code(code_hash)
        except CodeNotFound as exc:
            raise Revert(str(exc)) from None

    # ------------------------------------------------------------------
    # Entry
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
        """Enter the contract at ``target``: the one entry step of both
        code kinds.

        A registered class runs its external ``method`` in Python; any
        other code runs in the VM, and only a bytecode call asks for
        that: its ``method`` is this runtime's :attr:`machine` and its
        ``args`` the calldata.  A call naming the other kind is refused
        with a :class:`Revert` that names the payload to use.  Enforces:
        external-only dispatch, payable checks, call-depth limit, and
        the Move lock — a non-view call to a contract whose ``L_c``
        names another chain aborts with :class:`ContractLocked`.
        """
        if ctx.call_depth >= MAX_CALL_DEPTH:
            raise Revert("max call depth exceeded")
        sender = sender if sender is not None else ctx.msg.sender
        ctx.charge(self.schedule.call)
        record = self.state.contract(target)
        if record is None:
            raise Revert(f"no contract at {target}")
        cls = _REGISTRY.get(record.code_hash)
        if cls is None:
            if method is not self.machine:
                raise Revert(
                    f"{target} is a bytecode contract: call it with a BytecodeCallPayload"
                )
            # Bytecode may always mutate and always take value.
            is_view, is_payable = False, True
        elif method is self.machine:
            raise Revert(f"{target} is a {cls.__name__} contract: call it with a CallPayload")
        else:
            # Registration precomputes ``method -> (fn, is_view,
            # is_payable)`` (every registered class carries its table).
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
        if cls is None:
            return self._run_code(ctx, target, record, sender, args, value)
        return self._frame(ctx, sender, value, fn, cls(ctx, target), args)

    def _run_code(
        self,
        ctx: TxContext,
        target: Address,
        record: ContractRecord,
        sender: Address,
        calldata: bytes,
        value: int,
    ) -> bytes:
        """Run a bytecode contract's code on ``calldata``; a failed run
        raises :class:`Revert`, so the transaction rolls back."""
        code = self.state.code_store.get(record.code_hash)
        if code is None:
            raise Revert("bytecode missing from the code store")
        context = StateMachineContext(self.state, target, sender, value, ctx.env)
        result = self.machine.execute(code, context, ctx.meter, ctx.category, calldata=calldata)
        if not result.success:
            raise Revert(result.error or "bytecode execution failed")
        return result.return_data

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
        raises :class:`~repro.errors.NotAViewError` — as does every
        query of a bytecode contract, which has no ``@view`` methods.
        """
        cls, fn = self._view_of(self.state.require_contract(target), method)
        env = env if env is not None else BlockEnv(self.state.chain_id, 0, 0.0)
        ctx = self.make_context(VIEW_SENDER, env)
        return self._frame(ctx, VIEW_SENDER, 0, fn, cls(ctx, target), args)

    @staticmethod
    def _view_of(record: ContractRecord, method: str) -> Tuple[Type[Contract], Any]:
        """The class of ``record``'s code and its ``@view`` function
        ``method``: the one rule for "is this a view?", which the
        gateway's read-only-replica check asks too.  Anything else
        raises :class:`~repro.errors.NotAViewError`."""
        cls = _REGISTRY.get(record.code_hash)
        if cls is None:
            raise NotAViewError("a bytecode contract has no @view methods")
        entry = cls._RT_DISPATCH.get(method)
        if entry is None or not entry[1]:
            raise NotAViewError(f"{cls.__name__}.{method} is not a @view method")
        return cls, entry[0]

    def _hook(
        self,
        ctx: TxContext,
        address: Address,
        hook: str,
        args: Tuple[Any, ...],
        sender: Address,
    ) -> bool:
        """Run a Move hook (``move_to`` / ``move_finish``, paper
        Listing 1) of the contract at ``address`` as ``sender``.
        Returns False, running nothing, for bytecode: it has no hooks."""
        cls = _REGISTRY.get(self.state.require_contract(address).code_hash)
        if cls is None:
            return False
        self._frame(ctx, sender, 0, getattr(cls, hook), cls(ctx, address), args)
        return True

    def bind(self, ctx: TxContext, target: Address) -> Contract:
        """Instantiate a typed view over a deployed contract."""
        record = self.state.require_contract(target)
        cls = lookup_code(record.code_hash)
        return cls(ctx, target)

    # ------------------------------------------------------------------

    @staticmethod
    def _frame(
        ctx: TxContext,
        sender: Address,
        value: int,
        fn: Any,
        instance: Contract,
        args: Tuple[Any, ...],
    ) -> Any:
        """Run ``fn(instance, *args)`` in a call frame whose
        ``msg.sender``/``msg.value`` are ``sender``/``value``."""
        ctx.push_msg(Msg(sender, value))
        try:
            return fn(instance, *args)
        finally:
            ctx.pop_msg()

    def _transfer_value(self, sender: Address, to: Address, value: int) -> None:
        """Move ``value`` of native currency from ``sender`` to ``to``."""
        state = self.state
        if state.balance_of(sender) < value:
            raise Revert(f"insufficient balance for value transfer from {sender}")
        state.sub_balance(sender, value)
        state.add_balance(to, value)
