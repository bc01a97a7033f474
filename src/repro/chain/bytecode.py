"""On-chain execution of raw bytecode contracts.

The high-level runtime (:mod:`repro.runtime`) is how the paper's
applications are written, but assumption (b) of the Move protocol —
"use the same execution environment" — is about the *virtual machine*.
This module closes the loop: raw bytecode produced by
:func:`repro.vm.assembler.assemble` can be deployed and called on a
chain, executing against the same journaled world state through
:class:`StateMachineContext`, with ``OP_MOVE`` writing the same ``L_c``
field the high-level Move1 path writes.  A bytecode contract therefore
moves across chains exactly like a Python-class contract: its own code
executes ``OP_MOVE`` (there is no ``moveTo`` hook at this level), any
client ships the Move2 proof, and the target recreates code + storage.

Storage mapping: the VM's 256-bit keys/values are stored as 32-byte
big-endian keys with non-zero 32-byte values (zero stores delete the
slot), so Merkle commitment and Move2 recreation are identical to the
high-level layer's.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.crypto.keys import Address
from repro.errors import Revert
from repro.runtime.context import BlockEnv
from repro.statedb.state import WorldState
from repro.vm.gas import GasMeter
from repro.vm.machine import ExecutionResult, Machine


def address_to_word(address: Address) -> int:
    """A 20-byte address as the VM's 256-bit word."""
    return int.from_bytes(address.raw, "big")


def word_to_key(key: int) -> bytes:
    """A 256-bit storage key as its canonical 32-byte form."""
    return key.to_bytes(32, "big")


class StateMachineContext:
    """A :class:`~repro.vm.machine.MachineContext` over the world state."""

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
        self.address = address_to_word(contract)
        self.caller = address_to_word(caller)
        self.callvalue = callvalue
        self.chain_id = env.chain_id
        self.block_number = env.height
        self.timestamp = int(env.timestamp)
        self.logs: List[Tuple[List[int], bytes]] = []

    def storage_get(self, key: int) -> int:
        """Read the world-state slot as a 256-bit word."""
        raw = self._state.storage_get(self._contract, word_to_key(key))
        return int.from_bytes(raw, "big") if raw else 0

    def storage_set(self, key: int, value: int) -> None:
        """Write the world-state slot (journaled; zero deletes)."""
        raw = value.to_bytes(32, "big") if value else b""
        self._state.storage_set(self._contract, word_to_key(key), raw)

    def balance_of(self, address: int) -> int:
        """Native balance of the 20-byte tail of ``address``."""
        return self._state.balance_of(Address(address.to_bytes(20, "big")))

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


def execute_bytecode_call(
    state: WorldState,
    machine: Machine,
    contract: Address,
    caller: Address,
    calldata: bytes,
    value: int,
    env: BlockEnv,
    meter: GasMeter,
    category: str = "execution",
) -> ExecutionResult:
    """Run a call to a deployed bytecode contract.

    The caller (executor) refuses a contract that is not active here
    (the world state refuses its writes anyway) and owns value transfer
    and journaling; a failed run raises :class:`Revert` so the
    surrounding transaction aborts and rolls back.
    """
    record = state.require_contract(contract)
    code = state.code_store.get(record.code_hash)
    if code is None:
        raise Revert("bytecode missing from the code store")
    context = StateMachineContext(state, contract, caller, value, env)
    result = machine.execute(code, context, meter, category, calldata=calldata)
    if not result.success:
        raise Revert(result.error or "bytecode execution failed")
    return result
