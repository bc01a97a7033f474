"""Transaction receipts."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple


@dataclass(slots=True)
class Receipt:
    """Outcome of one executed transaction, stamped with the block that
    carried it.

    ``gas_by_category`` preserves the meter's split (execution /
    code_deposit / proof_verify / ...) — the Fig. 9 harness reads the
    breakdown straight from receipts.  Slotted: a chain keeps one per
    transaction it ever executed.
    """

    tx_id: str
    success: bool
    gas_used: int
    error: Optional[str] = None
    return_value: Any = None
    #: the contract's emitted events; the empty tuple is a shared,
    #: untracked singleton, so a receipt without events costs nothing
    logs: Tuple[Tuple[str, Dict[str, Any]], ...] = ()
    block_height: Optional[int] = None
    block_time: Optional[float] = None
    gas_by_category: Dict[str, int] = field(default_factory=dict)
    #: native currency actually deducted for gas (0 on free chains)
    fee_paid: int = 0
