"""The paper's contribution: the Move protocol.

* :mod:`repro.core.proofs` — the contract state proof bundle a client
  assembles at the source chain and ships inside a Move2 transaction;
* :mod:`repro.core.move` — Move1/Move2 semantics (Algorithm 1),
  including the lock field ``L_c``, the ``VS``/``VP`` checks and the
  move-nonce replay guard (Fig. 2);
* :mod:`repro.core.relay` — the currency relay built *on top of* the
  primitive (Section III-F, Fig. 3): lock native currency on the source
  chain, mint a provably-backed token on the target chain;
* :mod:`repro.core.locator` — client-side contract discovery by
  following the ``L_c`` trail (Section III-G).
"""

from repro.core.move import apply_move1, apply_move2, validate_move2
from repro.core.proofs import ContractStateProof
from repro.core.locator import ContractLocator

__all__ = [
    "apply_move1",
    "apply_move2",
    "validate_move2",
    "ContractStateProof",
    "ContractLocator",
]
