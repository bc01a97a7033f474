"""Gas schedule and metering.

Costs follow the Yellow Paper classes the paper relies on in Section VI
("a sum between two integers costs 3 gas, while creating a new smart
contract costs 32000 gas") and Section VIII's observations:

* storage writes dominate state transfer (Fig. 9: Store 100 ≈ 2 Mgas,
  i.e. ~100 × ``SSTORE_SET``);
* on Ethereum-flavoured chains, recreating a contract pays a per-byte
  **code deposit**, which accounts for ~70 % of the SCoin /
  ScalableKitties move cost; Burrow charges no per-byte code deposit —
  expressed here as a per-chain :class:`GasSchedule` flag.

The :class:`GasMeter` tracks consumption per category so the Fig. 9
harness can split a transaction's cost into move1/create/move2/complete
components without re-deriving them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import OutOfGas


@dataclass(frozen=True)
class GasSchedule:
    """Per-chain gas cost table (Yellow-Paper-aligned subset)."""

    tx_base: int = 21_000
    sstore_set: int = 20_000      # write a fresh (zero -> nonzero) slot
    sstore_update: int = 5_000    # overwrite an existing slot
    sstore_clear: int = 5_000     # zero out a slot (no refund modelled)
    sload: int = 200
    create: int = 32_000          # CREATE/contract instantiation
    code_deposit_per_byte: int = 200  # Ethereum flavour; 0 on Burrow flavour
    call: int = 700
    balance: int = 400
    verylow: int = 3              # ADD, SUB, comparison, PUSH, DUP, SWAP...
    low: int = 5                  # MUL, DIV, MOD
    base: int = 2                 # POP, PC, ADDRESS, CALLER...
    jumpdest: int = 1
    high: int = 10                # JUMPI
    mid: int = 8                  # JUMP
    sha3_base: int = 30
    sha3_per_word: int = 6
    log_base: int = 375
    log_per_byte: int = 8
    memory_per_word: int = 3
    tx_data_per_byte: int = 68
    move_op: int = 5_000          # OP_MOVE: storage-update-class write to L_c
    proof_verify_base: int = 100  # Move2: per-proof fixed verification cost
    proof_verify_per_word: int = 6  # Move2: per 32-byte word of proof data
    #: Section VIII notes "it is possible to reduce significantly the
    #: Ethereum contract creation costs if the contract code is already
    #: in the blockchain" — this flag enables that optimization: the
    #: per-byte deposit is skipped when identical code is on-chain.
    #: Off by default (the paper's systems charge every creation).
    code_deposit_dedup: bool = False

    def code_deposit(self, code_size: int) -> int:
        """Gas for storing ``code_size`` bytes of contract code."""
        return self.code_deposit_per_byte * code_size

    def sha3(self, data_size: int) -> int:
        """Gas for hashing ``data_size`` bytes."""
        return self.sha3_base + self.sha3_per_word * _words(data_size)

    def proof_verification(self, proof_size: int) -> int:
        """Gas charged by Move2 to verify a Merkle proof of this size."""
        return self.proof_verify_base + self.proof_verify_per_word * _words(proof_size)

    def log(self, data_size: int) -> int:
        """Gas for emitting a log with ``data_size`` bytes of data."""
        return self.log_base + self.log_per_byte * data_size


def _words(size_bytes: int) -> int:
    return (size_bytes + 31) // 32


#: Ethereum-flavoured schedule: full code deposit charged per byte.
ETHEREUM_SCHEDULE = GasSchedule()

#: Burrow-flavoured schedule: identical except no per-byte code deposit
#: (paper Section VIII: "in Burrow no gas is paid per byte of code").
BURROW_SCHEDULE = GasSchedule(code_deposit_per_byte=0)


class GasMeter:
    """Tracks gas for one transaction, split by category.

    ``limit=None`` means unmetered (used by read-only queries and by
    the experiment harness when gas is recorded but never binding).
    """

    def __init__(self, limit: Optional[int] = None, schedule: GasSchedule = ETHEREUM_SCHEDULE):
        self.limit = limit
        self.schedule = schedule
        self.used = 0
        self.by_category: Dict[str, int] = {}

    def charge(self, amount: int, category: str = "execution") -> None:
        """Consume ``amount`` gas; raises :class:`OutOfGas` past the limit."""
        if amount < 0:
            raise ValueError("gas amounts are non-negative")
        self.used += amount
        self.by_category[category] = self.by_category.get(category, 0) + amount
        if self.limit is not None and self.used > self.limit:
            raise OutOfGas(f"gas limit {self.limit} exceeded (used {self.used})")

    @property
    def remaining(self) -> Optional[int]:
        if self.limit is None:
            return None
        return max(self.limit - self.used, 0)

    def snapshot(self) -> int:
        """Current usage — subtract two snapshots to meter a phase."""
        return self.used
