"""Execution contexts: the one threaded through Python contract calls,
and the one the VM runs bytecode contracts in."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.crypto.keys import Address
from repro.statedb.state import WorldState
from repro.vm.gas import GasMeter


@dataclass(frozen=True)
class BlockEnv:
    """Block-level environment visible to contracts."""

    chain_id: int
    height: int
    timestamp: float


@dataclass(frozen=True)
class Msg:
    """The Solidity ``msg`` object: who calls, with how much value."""

    sender: Address
    value: int


class TxContext:
    """Per-transaction execution context.

    Carries the world state, gas meter, block environment and the call
    stack of :class:`Msg` frames (one per nested contract call).  The
    ``category`` string tags every gas charge, letting the experiment
    harness split costs per phase (Fig. 9).
    """

    def __init__(
        self,
        state: WorldState,
        env: BlockEnv,
        meter: GasMeter,
        origin: Address,
        category: str = "execution",
    ):
        self.state = state
        self.env = env
        self.meter = meter
        self.origin = origin
        self.category = category
        #: the executing node's light client (set by the chain's
        #: executor); lets contracts verify remote-chain state through
        #: the :meth:`~repro.runtime.contract.Contract.verify_remote_state`
        #: builtin.  None in standalone runtime use.
        self.light_client = None
        self._msg_stack: List[Msg] = []
        self.events: List[Tuple[str, Dict[str, Any]]] = []
        self.call_depth = 0

    @property
    def msg(self) -> Msg:
        if not self._msg_stack:
            raise RuntimeError("no active call frame")
        return self._msg_stack[-1]

    def push_msg(self, msg: Msg) -> None:
        """Enter a call frame (sets msg.sender/value for the callee)."""
        self._msg_stack.append(msg)
        self.call_depth += 1

    def pop_msg(self) -> None:
        """Leave the current call frame."""
        self._msg_stack.pop()
        self.call_depth -= 1

    def charge(self, amount: int, category: Optional[str] = None) -> None:
        """Charge gas under this context's (or the given) category."""
        self.meter.charge(amount, category or self.category)

    def emit(self, name: str, **fields: Any) -> None:
        """Record a contract event (charged by the caller)."""
        self.events.append((name, fields))


class StateMachineContext:
    """A :class:`~repro.vm.machine.MachineContext` over the world state:
    how a bytecode contract reaches the same journaled state as a
    Python-class one.

    Storage mapping: the VM's 256-bit keys/values are stored as 32-byte
    big-endian keys with non-zero 32-byte values (zero stores delete the
    slot), so Merkle commitment and Move2 recreation are identical to
    the Python-class layer's.  ``OP_MOVE`` writes the same ``L_c`` the
    Move1 path writes (:meth:`WorldState.lock`).
    """

    def __init__(
        self,
        state: WorldState,
        contract: Address,
        caller: Address,
        callvalue: int,
        env: BlockEnv,
    ):
        self._state = state
        self._contract = contract
        self.address = int.from_bytes(contract.raw, "big")
        self.caller = int.from_bytes(caller.raw, "big")
        self.callvalue = callvalue
        self.chain_id = env.chain_id
        self.block_number = env.height
        self.timestamp = int(env.timestamp)
        self.logs: List[Tuple[List[int], bytes]] = []

    def storage_get(self, key: int) -> int:
        """Read the world-state slot as a 256-bit word."""
        raw = self._state.storage_get(self._contract, key.to_bytes(32, "big"))
        return int.from_bytes(raw, "big") if raw else 0

    def storage_set(self, key: int, value: int) -> None:
        """Write the world-state slot (journaled; zero deletes)."""
        raw = value.to_bytes(32, "big") if value else b""
        self._state.storage_set(self._contract, key.to_bytes(32, "big"), raw)

    def balance_of(self, address: int) -> int:
        """Native balance of the 20-byte tail of ``address`` (the low
        160 bits of the word, as the EVM reads it)."""
        low = address & ((1 << 160) - 1)
        return self._state.balance_of(Address(low.to_bytes(20, "big")))

    def move_to(self, target_chain: int) -> None:
        """OP_MOVE: the contract moves itself (gas charged by the VM)."""
        self._state.lock(self._contract, target_chain, self.block_number)

    def location(self) -> int:
        """The executing contract's L_c."""
        return self._state.require_contract(self._contract).location

    def move_nonce(self) -> int:
        """The executing contract's move nonce."""
        return self._state.require_contract(self._contract).move_nonce

    def emit_log(self, topics: List[int], data: bytes) -> None:
        """Collect LOG events for the receipt."""
        self.logs.append((topics, data))
