"""Gas-metered contract runtime for both code kinds.

The paper's applications are written in (extended) Solidity and compiled
to the EVM.  Here they are written as Python classes against this
runtime, which plays the role of Solidity + EVM: typed storage slots
route every read/write through the same gas schedule as the bytecode VM,
``require`` reverts, methods are dispatched through an ABI-like boundary
with ``msg.sender``/``msg.value`` semantics, contract creation charges
CREATE + code-deposit gas, and the Move protocol's lock field ``L_c``
is enforced on every call (writes to a moved-away contract abort).

The runtime owns the bytecode backend too: a contract whose code is no
registered class runs in the VM (:mod:`repro.vm`) through the same
creation, entry and value-transfer steps (:mod:`repro.runtime.runtime`).
"""

from repro.runtime.context import BlockEnv, Msg, TxContext
from repro.runtime.contract import Contract, MapSlot, Slot, external, payable, view
from repro.runtime.registry import code_for, lookup_code, register_contract
from repro.runtime.runtime import Runtime

__all__ = [
    "Contract",
    "Slot",
    "MapSlot",
    "external",
    "payable",
    "view",
    "Runtime",
    "TxContext",
    "Msg",
    "BlockEnv",
    "register_contract",
    "lookup_code",
    "code_for",
]
