"""Contract base class, typed storage slots and method decorators.

A contract class declares storage declaratively::

    @register_contract
    class Counter(Contract):
        count = Slot(int)
        owners = MapSlot(Address, int)

        @external
        def bump(self) -> int:
            require(self.msg.sender == self.owner, "not owner")
            self.count += 1
            return self.count

Slot reads charge ``SLOAD`` gas, writes charge ``SSTORE`` (set / update
/ clear discriminated on the previous value), exactly like the bytecode
VM — the point where the high-level runtime stays gas-faithful to the
EVM model the paper measures.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Type, TypeVar

from repro.crypto.hashing import keccak
from repro.crypto.keys import Address
from repro.errors import Revert
from repro.runtime.context import BlockEnv, Msg, TxContext

F = TypeVar("F", bound=Callable)


def external(fn: F) -> F:
    """Mark a method callable from transactions and other contracts."""
    fn._is_external = True  # type: ignore[attr-defined]
    return fn


def payable(fn: F) -> F:
    """Allow the method to receive value (``msg.value > 0``)."""
    fn._is_external = True  # type: ignore[attr-defined]
    fn._is_payable = True  # type: ignore[attr-defined]
    return fn


def view(fn: F) -> F:
    """Mark a read-only method — callable even on a locked (moved-away)
    contract, since reads of moved state remain legal (Section III-B)."""
    fn._is_external = True  # type: ignore[attr-defined]
    fn._is_view = True  # type: ignore[attr-defined]
    return fn


#: what a slot of each kind holds: what :func:`decode_value` reads back
#: equal (``True`` from an ``int`` slot as 1, ``None`` from an ``Address``)
_HOLDS = {int: int, bool: bool, Address: (Address, type(None)), bytes: bytes}


def encode_value(value: Any, kind: Optional[Type] = None) -> bytes:
    """Canonical storage encoding; with a slot's declared ``kind``,
    refuses (:class:`TypeError`) a kind :func:`decode_value` cannot read
    and a value that would not read back equal."""
    if kind is not None:
        holds = _HOLDS.get(kind)
        if holds is None:
            raise TypeError(f"no slot kind {kind!r}: decode_value cannot read it back")
        if not isinstance(value, holds):
            raise TypeError(f"a {kind.__name__} slot cannot hold a {type(value).__name__}")
    if isinstance(value, bool):
        return b"\x01" if value else b""
    if isinstance(value, int):
        if value < 0:
            raise ValueError("storage integers are non-negative")
        return value.to_bytes(32, "big") if value else b""
    if isinstance(value, Address):
        return value.raw
    if isinstance(value, bytes):
        return value
    if value is None:
        return b""
    raise TypeError(f"unsupported storage type {type(value).__name__}")


def decode_value(raw: bytes, kind: Type) -> Any:
    """Inverse of :func:`encode_value` for a declared slot type."""
    if kind is bool:
        return bool(raw)
    if kind is int:
        return int.from_bytes(raw, "big") if raw else 0
    if kind is Address:
        return Address(raw) if raw else None
    if kind is bytes:
        return raw
    raise TypeError(f"unsupported slot type {kind.__name__}")


def encode_key(value: Any) -> bytes:
    """Canonical encoding of a map key."""
    if isinstance(value, Address):
        return value.raw
    if isinstance(value, bool):
        return b"\x01" if value else b"\x00"
    if isinstance(value, int):
        return value.to_bytes(32, "big", signed=False)
    if isinstance(value, (bytes, bytearray)):
        return bytes(value)
    if isinstance(value, str):
        return value.encode()
    raise TypeError(f"unsupported map key type {type(value).__name__}")


#: the kinds a slot may declare: values :func:`decode_value` reads,
#: map keys :func:`encode_key` encodes
_VALUE_KINDS = tuple(_HOLDS)
_KEY_KINDS = (Address, bool, int, bytes, bytearray, str)


def _declared(kind: Any, kinds, role: str) -> Type:
    """``kind`` if a slot can store it, else :class:`TypeError` at class
    creation (a value kind :func:`decode_value` cannot read would fail
    on the first read of a written slot)."""
    if kind not in kinds:
        names = ", ".join(allowed.__name__ for allowed in kinds)
        raise TypeError(f"a slot's {role} kind must be one of {names}, not {kind!r}")
    return kind


class Slot:
    """A scalar storage slot; the key is derived from the field name."""

    def __init__(self, kind: Type = int, default: Any = None):
        self.kind = _declared(kind, _VALUE_KINDS, "value")
        self.default = default
        self.key = b""

    def __set_name__(self, owner: Type, name: str) -> None:
        self.name = name
        self.key = keccak(b"slot", name.encode())

    def __get__(self, obj: Optional["Contract"], objtype: Type = None) -> Any:
        if obj is None:
            return self
        raw = obj._storage_read(self.key)
        if not raw and self.default is not None:
            return self.default
        return decode_value(raw, self.kind)

    def __set__(self, obj: "Contract", value: Any) -> None:
        obj._storage_write(self.key, encode_value(value, self.kind))


class _MapAccessor:
    """Live view over one contract's map slot."""

    def __init__(self, contract: "Contract", slot: "MapSlot"):
        self._contract = contract
        self._key = slot.derived_key
        self._value_kind = slot.value_kind

    def __getitem__(self, key: Any) -> Any:
        return decode_value(self._contract._storage_read(self._key(key)), self._value_kind)

    def __setitem__(self, key: Any, value: Any) -> None:
        self._contract._storage_write(self._key(key), encode_value(value, self._value_kind))

    def __delitem__(self, key: Any) -> None:
        self._contract._storage_write(self._key(key), b"")

    def __contains__(self, key: Any) -> bool:
        return bool(self._contract._storage_read(self._key(key)))


class MapSlot:
    """A mapping slot (``mapping(K => V)`` in Solidity terms).

    Derived slot keys (``keccak(base, encode_key(k))``) are memoized on
    the descriptor: the base key is fixed at class definition, so the
    derivation is pure and one hot map key (SCoin allowance owners, a
    kitty id) would otherwise re-hash on every single access.
    """

    #: derived-key memo bound (entries are 32-byte values keyed by small
    #: primitives; 4096 keeps the worst case well under a megabyte)
    _CACHE_LIMIT = 4096

    def __init__(self, key_kind: Type, value_kind: Type):
        self.key_kind = _declared(key_kind, _KEY_KINDS, "key")
        self.value_kind = _declared(value_kind, _VALUE_KINDS, "value")
        self.base = b""
        self._derived: dict = {}

    def __set_name__(self, owner: Type, name: str) -> None:
        self.name = name
        self.base = keccak(b"map", name.encode())
        self._derived.clear()  # base changed: old derivations are stale

    def derived_key(self, key: Any) -> bytes:
        """The keccak-derived storage key for one mapping entry,
        memoized per ``(type, key)`` — typed so bool/int stay apart
        (``True == 1`` would otherwise alias two distinct encoded
        keys).  The memo is bounded and cleared on re-registration."""
        try:
            memo_key = (key.__class__, key)
            cached = self._derived.get(memo_key)
            if cached is not None:
                return cached
            derived = keccak(self.base, encode_key(key))
            if len(self._derived) >= self._CACHE_LIMIT:
                self._derived.clear()
            self._derived[memo_key] = derived
            return derived
        except TypeError:  # unhashable key type: derive uncached
            return keccak(self.base, encode_key(key))

    def __get__(self, obj: Optional["Contract"], objtype: Type = None) -> Any:
        if obj is None:
            return self
        return _MapAccessor(obj, self)

    def __set__(self, obj: "Contract", value: Any) -> None:
        raise AttributeError("assign through map[key] = value, not the map itself")


class Contract:
    """Base class for all contracts.

    Instances are ephemeral *views*: the runtime binds
    ``(context, address)`` for the duration of one call.  Persistent
    data lives exclusively in declared slots.
    """

    CODE: bytes = b""
    CODE_HASH: bytes = b""

    def __init__(self, ctx: TxContext, address: Address):
        self._ctx = ctx
        self.address = address
        self._meter = ctx.meter
        #: the record's slot dict, bound once per call: a slot read is a
        #: gas charge plus one ``dict.get`` (writes still go through the
        #: journaled ``WorldState.storage_set``)
        self._storage = ctx.state.require_contract(address).storage

    # -- environment accessors ----------------------------------------

    @property
    def msg(self) -> Msg:
        return self._ctx.msg

    @property
    def env(self) -> BlockEnv:
        return self._ctx.env

    @property
    def chain_id(self) -> int:
        return self._ctx.env.chain_id

    @property
    def now(self) -> float:
        """Block timestamp (Solidity's ``now``)."""
        return self._ctx.env.timestamp

    @property
    def balance(self) -> int:
        return self._ctx.state.balance_of(self.address)

    @property
    def location(self) -> int:
        """The Move protocol's ``L_c`` for this contract."""
        return self._ctx.state.require_contract(self.address).location

    @property
    def move_nonce(self) -> int:
        return self._ctx.state.require_contract(self.address).move_nonce

    # -- metered storage ------------------------------------------------

    def _storage_read(self, key: bytes) -> bytes:
        meter = self._meter
        meter.charge(meter.schedule.sload, self._ctx.category)
        return self._storage.get(key, b"")

    def _storage_write(self, key: bytes, value: bytes) -> None:
        meter = self._meter
        schedule = meter.schedule
        if key not in self._storage:
            cost = schedule.sstore_set if value else schedule.sstore_update
        else:
            cost = schedule.sstore_update if value else schedule.sstore_clear
        meter.charge(cost, self._ctx.category)
        self._ctx.state.storage_set(self.address, key, value)

    # -- contract-to-contract interaction --------------------------------

    def call(self, target: Address, method: str, *args: Any, value: int = 0) -> Any:
        """Call another contract; ``msg.sender`` becomes this contract."""
        return self._ctx.runtime.call(self._ctx, target, method, args, self.address, value)

    def create(
        self, cls: Type["Contract"], *args: Any, salt: Optional[int] = None, value: int = 0
    ) -> Address:
        """Create a child contract (CREATE/CREATE2 by salt presence)."""
        return self._ctx.runtime.deploy(self._ctx, cls, args, self.address, salt, value)

    def transfer(self, to: Address, amount: int) -> None:
        """Send native currency from this contract's balance."""
        self._ctx.runtime._transfer_value(self.address, to, amount)

    def emit(self, name: str, **fields: Any) -> None:
        """Emit an event (charged at LOG cost)."""
        size = sum(len(str(v)) for v in fields.values())
        self._ctx.charge(self._ctx.meter.schedule.log(size))
        self._ctx.emit(name, **fields)

    def verify_remote_state(self, proof: Any) -> bool:
        """Light-client builtin: verify a
        :class:`~repro.core.proofs.RemoteStateProof` against the
        executing node's confirmed headers of the proof's chain.

        This is the "more generic method ... using Merkle proofs"
        Section V-A alludes to: contract logic can attest arbitrary
        remote storage entries.  Charges proof-verification gas.
        Returns False (never raises) on any mismatch; reverts only if
        the node has no light client (standalone runtime use).
        """
        light_client = getattr(self._ctx, "light_client", None)
        if light_client is None:
            raise Revert("no light client available in this execution context")
        try:
            size = proof.size_bytes()
        except (AttributeError, TypeError, ValueError):
            size = None  # a malformed proof: charged as an empty one
        self._ctx.charge(self._ctx.meter.schedule.proof_verification(size or 0))
        return size is not None and proof.verify(light_client)

    def op_move(self, target_chain: int) -> None:
        """Execute OP_MOVE from inside contract code: lock this contract
        toward ``target_chain`` (:meth:`~repro.statedb.state.WorldState.lock`).

        This is how the currency relay (paper Fig. 3) locks the relay
        contract "on creation" — the contract moves *itself* without a
        separate Move1 transaction.  The ``moveTo`` guard is *not* run:
        the contract is the one deciding to move.
        """
        # Lock first: a refused target costs no move_op gas.
        self._ctx.state.lock(self.address, target_chain, self.env.height)
        self._ctx.charge(self._ctx.meter.schedule.move_op)

    # -- Move protocol hooks (paper Listing 1) ---------------------------

    def move_to(self, target_chain: int) -> None:
        """Custom guard run by Move1 before ``L_c`` is assigned.

        Override to restrict who may move the contract and when; raise
        via ``require(...)`` to refuse the move.  Default: anyone who
        owns nothing special may move nothing — subclasses opt in by
        overriding (a contract that does not override cannot move).
        """
        raise Revert(f"{type(self).__name__} does not implement moveTo")

    def move_finish(self) -> None:
        """Custom hook run by Move2 after state recreation (no-op)."""


def require(condition: Any, message: str = "requirement failed") -> None:
    """Solidity's ``require``: revert the transaction unless truthy."""
    if not condition:
        raise Revert(message)
