"""The bytecode interpreter.

The :class:`Machine` executes EVM-flavoured bytecode against a
:class:`MachineContext` — the boundary through which storage, balance,
environment and the Move protocol's location field are reached.  The
chain's state database adapts itself to this protocol; the in-memory
:class:`MemoryContext` serves unit tests and standalone experiments.

``OP_MOVE`` semantics (paper Section III-C): pop the target blockchain
identifier and hand it to ``context.move_to(target)``, which assigns
``L_c``.  Once ``L_c`` names another chain, the chain's world state
refuses every write to the contract, so any transaction that would
mutate it aborts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Protocol, Set, Tuple

from repro.crypto.hashing import keccak
from repro.errors import InvalidJump, InvalidOpcode, Revert
from repro.vm.gas import GasMeter, GasSchedule, _words
from repro.vm.memory import Memory
from repro.vm.opcodes import Op, is_dup, is_push, is_swap, push_size
from repro.vm.stack import WORD_MASK, Stack

_SIGN_BIT = 1 << 255


def _signed(word: int) -> int:
    """Interpret a 256-bit word as two's-complement."""
    return word - (1 << 256) if word & _SIGN_BIT else word



class MachineContext(Protocol):
    """Environment the VM executes within."""

    address: int        # executing contract's address as an int
    caller: int         # msg.sender
    callvalue: int      # msg.value
    chain_id: int       # identifier of the hosting blockchain
    block_number: int
    timestamp: int

    def storage_get(self, key: int) -> int:
        """Read a 256-bit storage slot (0 when unset)."""
        ...

    def storage_set(self, key: int, value: int) -> None:
        """Write a 256-bit storage slot (0 deletes)."""
        ...

    def balance_of(self, address: int) -> int:
        """Native balance of an address (BALANCE opcode)."""
        ...

    def move_to(self, target_chain: int) -> None:
        """Assign the executing contract's ``L_c`` (OP_MOVE)."""

    def location(self) -> int:
        """Current ``L_c`` of the executing contract."""

    def move_nonce(self) -> int:
        """Monotonic move counter (replay guard, paper Fig. 2)."""

    def emit_log(self, topics: List[int], data: bytes) -> None:
        """Record a LOG event."""
        ...


@dataclass
class MemoryContext:
    """Self-contained context for unit tests and bytecode demos."""

    address: int = 0xC0FFEE
    caller: int = 0xCA11E4
    callvalue: int = 0
    chain_id: int = 1
    block_number: int = 1
    timestamp: int = 0
    storage: Dict[int, int] = field(default_factory=dict)
    balances: Dict[int, int] = field(default_factory=dict)
    _location: Optional[int] = None
    _move_nonce: int = 0
    logs: List[Tuple[List[int], bytes]] = field(default_factory=list)

    def storage_get(self, key: int) -> int:
        """Dict-backed slot read."""
        return self.storage.get(key, 0)

    def storage_set(self, key: int, value: int) -> None:
        """Dict-backed slot write (0 deletes)."""
        if value == 0:
            self.storage.pop(key, None)
        else:
            self.storage[key] = value

    def balance_of(self, address: int) -> int:
        """Dict-backed balance lookup."""
        return self.balances.get(address, 0)

    def move_to(self, target_chain: int) -> None:
        """Record the OP_MOVE target as the new location."""
        self._location = target_chain

    def location(self) -> int:
        """Current L_c (the home chain until a move happens)."""
        return self._location if self._location is not None else self.chain_id

    def move_nonce(self) -> int:
        """The simulated move counter."""
        return self._move_nonce

    def emit_log(self, topics: List[int], data: bytes) -> None:
        """Append the log entry to the in-memory list."""
        self.logs.append((topics, data))


@dataclass
class ExecutionResult:
    """Outcome of one bytecode run."""

    success: bool
    return_data: bytes
    gas_used: int
    error: Optional[str] = None


class Machine:
    """Executes one code blob to completion (no nested CALL at the
    bytecode level — cross-contract calls happen in the high-level
    runtime, as the paper's apps are Solidity-level)."""

    def __init__(self, schedule: GasSchedule):
        self.schedule = schedule

    def _jump_destinations(self, code: bytes) -> Set[int]:
        dests: Set[int] = set()
        pc = 0
        while pc < len(code):
            op = code[pc]
            if op == Op.JUMPDEST:
                dests.add(pc)
            pc += 1 + (push_size(op) if is_push(op) else 0)
        return dests

    def execute(
        self,
        code: bytes,
        context: MachineContext,
        meter: Optional[GasMeter] = None,
        category: str = "execution",
        calldata: bytes = b"",
    ) -> ExecutionResult:
        """Run ``code``; storage effects go through ``context``.

        A :class:`~repro.errors.Revert` or VM fault is reported in the
        result, not raised — the caller decides whether to roll back
        state (the chain's execution engine journals around this call).
        """
        meter = meter if meter is not None else GasMeter(schedule=self.schedule)
        gas_before = meter.used
        try:
            data = self._run(code, context, meter, category, calldata)
            return ExecutionResult(True, data, meter.used - gas_before)
        except Revert as exc:
            return ExecutionResult(False, b"", meter.used - gas_before, error=str(exc))
        except (InvalidJump, InvalidOpcode) as exc:
            return ExecutionResult(False, b"", meter.used - gas_before, error=str(exc))

    def _run(
        self, code: bytes, ctx: MachineContext, meter: GasMeter, cat: str,
        calldata: bytes = b"",
    ) -> bytes:
        sch = self.schedule
        stack = Stack()
        memory = Memory()
        dests = self._jump_destinations(code)
        pc = 0

        def charge_mem(grown_words: int) -> None:
            if grown_words:
                meter.charge(grown_words * sch.memory_per_word, cat)

        while pc < len(code):
            op = code[pc]
            pc += 1

            if is_push(op):
                size = push_size(op)
                meter.charge(sch.verylow, cat)
                stack.push(int.from_bytes(code[pc:pc + size], "big"))
                pc += size
            elif is_dup(op):
                meter.charge(sch.verylow, cat)
                stack.dup(op - Op.DUP1 + 1)
            elif is_swap(op):
                meter.charge(sch.verylow, cat)
                stack.swap(op - Op.SWAP1 + 1)
            elif op == Op.STOP:
                return b""
            elif op == Op.ADD:
                meter.charge(sch.verylow, cat)
                stack.push(stack.pop() + stack.pop())
            elif op == Op.MUL:
                meter.charge(sch.low, cat)
                stack.push(stack.pop() * stack.pop())
            elif op == Op.SUB:
                meter.charge(sch.verylow, cat)
                a, b = stack.pop(), stack.pop()
                stack.push(a - b)
            elif op == Op.DIV:
                meter.charge(sch.low, cat)
                a, b = stack.pop(), stack.pop()
                stack.push(0 if b == 0 else a // b)
            elif op == Op.MOD:
                meter.charge(sch.low, cat)
                a, b = stack.pop(), stack.pop()
                stack.push(0 if b == 0 else a % b)
            elif op == Op.SDIV:
                meter.charge(sch.low, cat)
                a, b = _signed(stack.pop()), _signed(stack.pop())
                # EVM truncates toward zero.
                stack.push(0 if b == 0 else abs(a) // abs(b) * (1 if (a < 0) == (b < 0) else -1))
            elif op == Op.SMOD:
                meter.charge(sch.low, cat)
                a, b = _signed(stack.pop()), _signed(stack.pop())
                # Result takes the dividend's sign (EVM semantics).
                stack.push(0 if b == 0 else (abs(a) % abs(b)) * (1 if a >= 0 else -1))
            elif op == Op.ADDMOD:
                meter.charge(sch.mid, cat)
                a, b, n = stack.pop(), stack.pop(), stack.pop()
                stack.push(0 if n == 0 else (a + b) % n)
            elif op == Op.MULMOD:
                meter.charge(sch.mid, cat)
                a, b, n = stack.pop(), stack.pop(), stack.pop()
                stack.push(0 if n == 0 else (a * b) % n)
            elif op == Op.EXP:
                meter.charge(sch.high, cat)
                a, b = stack.pop(), stack.pop()
                stack.push(pow(a, b, 1 << 256))
            elif op == Op.SIGNEXTEND:
                meter.charge(sch.low, cat)
                size, value = stack.pop(), stack.pop()
                if size < 31:
                    sign_bit = 1 << (8 * (size + 1) - 1)
                    if value & sign_bit:
                        value |= WORD_MASK ^ ((sign_bit << 1) - 1)
                    else:
                        value &= (sign_bit << 1) - 1
                stack.push(value)
            elif op == Op.LT:
                meter.charge(sch.verylow, cat)
                a, b = stack.pop(), stack.pop()
                stack.push(1 if a < b else 0)
            elif op == Op.GT:
                meter.charge(sch.verylow, cat)
                a, b = stack.pop(), stack.pop()
                stack.push(1 if a > b else 0)
            elif op == Op.EQ:
                meter.charge(sch.verylow, cat)
                stack.push(1 if stack.pop() == stack.pop() else 0)
            elif op == Op.ISZERO:
                meter.charge(sch.verylow, cat)
                stack.push(1 if stack.pop() == 0 else 0)
            elif op == Op.AND:
                meter.charge(sch.verylow, cat)
                stack.push(stack.pop() & stack.pop())
            elif op == Op.OR:
                meter.charge(sch.verylow, cat)
                stack.push(stack.pop() | stack.pop())
            elif op == Op.XOR:
                meter.charge(sch.verylow, cat)
                stack.push(stack.pop() ^ stack.pop())
            elif op == Op.SLT:
                meter.charge(sch.verylow, cat)
                a, b = _signed(stack.pop()), _signed(stack.pop())
                stack.push(1 if a < b else 0)
            elif op == Op.SGT:
                meter.charge(sch.verylow, cat)
                a, b = _signed(stack.pop()), _signed(stack.pop())
                stack.push(1 if a > b else 0)
            elif op == Op.NOT:
                meter.charge(sch.verylow, cat)
                stack.push(~stack.pop() & WORD_MASK)
            elif op == Op.BYTE:
                meter.charge(sch.verylow, cat)
                index, value = stack.pop(), stack.pop()
                stack.push((value >> (8 * (31 - index))) & 0xFF if index < 32 else 0)
            elif op == Op.SHL:
                meter.charge(sch.verylow, cat)
                shift, value = stack.pop(), stack.pop()
                stack.push(0 if shift >= 256 else (value << shift) & WORD_MASK)
            elif op == Op.SHR:
                meter.charge(sch.verylow, cat)
                shift, value = stack.pop(), stack.pop()
                stack.push(0 if shift >= 256 else value >> shift)
            elif op == Op.SAR:
                meter.charge(sch.verylow, cat)
                shift, value = stack.pop(), _signed(stack.pop())
                if shift >= 256:
                    stack.push(WORD_MASK if value < 0 else 0)
                else:
                    stack.push((value >> shift) & WORD_MASK)
            elif op == Op.SHA3:
                offset, size = stack.pop(), stack.pop()
                meter.charge(sch.sha3(size), cat)
                digest = keccak(memory.load(offset, size))
                stack.push(int.from_bytes(digest, "big"))
            elif op == Op.ADDRESS:
                meter.charge(sch.base, cat)
                stack.push(ctx.address)
            elif op == Op.BALANCE:
                meter.charge(sch.balance, cat)
                stack.push(ctx.balance_of(stack.pop()))
            elif op == Op.CALLER:
                meter.charge(sch.base, cat)
                stack.push(ctx.caller)
            elif op == Op.CALLVALUE:
                meter.charge(sch.base, cat)
                stack.push(ctx.callvalue)
            elif op == Op.CALLDATALOAD:
                meter.charge(sch.verylow, cat)
                offset = stack.pop()
                chunk = calldata[offset:offset + 32]
                stack.push(int.from_bytes(chunk.ljust(32, b"\x00"), "big"))
            elif op == Op.CALLDATASIZE:
                meter.charge(sch.base, cat)
                stack.push(len(calldata))
            elif op == Op.CALLDATACOPY:
                dest, offset, size = stack.pop(), stack.pop(), stack.pop()
                meter.charge(sch.verylow + sch.memory_per_word * _words(size), cat)
                chunk = calldata[offset:offset + size].ljust(size, b"\x00")
                charge_mem(memory.store(dest, chunk))
            elif op == Op.CHAINID:
                meter.charge(sch.base, cat)
                stack.push(ctx.chain_id)
            elif op == Op.NUMBER:
                meter.charge(sch.base, cat)
                stack.push(ctx.block_number)
            elif op == Op.TIMESTAMP:
                meter.charge(sch.base, cat)
                stack.push(ctx.timestamp)
            elif op == Op.POP:
                meter.charge(sch.base, cat)
                stack.pop()
            elif op == Op.MLOAD:
                meter.charge(sch.verylow, cat)
                offset = stack.pop()
                stack.push(memory.load_word(offset))
            elif op == Op.MSTORE:
                meter.charge(sch.verylow, cat)
                offset, value = stack.pop(), stack.pop()
                charge_mem(memory.store_word(offset, value))
            elif op == Op.MSTORE8:
                meter.charge(sch.verylow, cat)
                offset, value = stack.pop(), stack.pop()
                charge_mem(memory.store(offset, bytes([value & 0xFF])))
            elif op == Op.MSIZE:
                meter.charge(sch.base, cat)
                stack.push(len(memory))
            elif op == Op.SLOAD:
                meter.charge(sch.sload, cat)
                stack.push(ctx.storage_get(stack.pop()))
            elif op == Op.SSTORE:
                key, value = stack.pop(), stack.pop()
                current = ctx.storage_get(key)
                if current == 0 and value != 0:
                    meter.charge(sch.sstore_set, cat)
                elif value == 0 and current != 0:
                    meter.charge(sch.sstore_clear, cat)
                else:
                    meter.charge(sch.sstore_update, cat)
                ctx.storage_set(key, value)
            elif op == Op.JUMP:
                meter.charge(sch.mid, cat)
                target = stack.pop()
                if target not in dests:
                    raise InvalidJump(f"jump to non-JUMPDEST {target}")
                pc = target
            elif op == Op.JUMPI:
                meter.charge(sch.high, cat)
                target, condition = stack.pop(), stack.pop()
                if condition != 0:
                    if target not in dests:
                        raise InvalidJump(f"jump to non-JUMPDEST {target}")
                    pc = target
            elif op == Op.PC:
                meter.charge(sch.base, cat)
                stack.push(pc - 1)
            elif op == Op.JUMPDEST:
                meter.charge(sch.jumpdest, cat)
            elif op == Op.LOG0:
                offset, size = stack.pop(), stack.pop()
                meter.charge(sch.log(size), cat)
                ctx.emit_log([], memory.load(offset, size))
            elif op == Op.MOVE:
                # The paper's new opcode: assign L_c := target chain.
                meter.charge(sch.move_op, cat)
                ctx.move_to(stack.pop())
            elif op == Op.MOVENONCE:
                meter.charge(sch.base, cat)
                stack.push(ctx.move_nonce())
            elif op == Op.LOCATION:
                meter.charge(sch.base, cat)
                stack.push(ctx.location())
            elif op == Op.RETURN:
                offset, size = stack.pop(), stack.pop()
                return memory.load(offset, size)
            elif op == Op.REVERT:
                offset, size = stack.pop(), stack.pop()
                raise Revert(memory.load(offset, size).decode("utf-8", "replace"))
            else:
                raise InvalidOpcode(f"undefined opcode 0x{op:02x} at pc {pc - 1}")
        return b""
