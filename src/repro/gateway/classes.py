"""Priority classes for gateway admission.

The serving tier separates traffic into three classes ordered by how
badly the protocol suffers when they stall (docs/SERVING.md):

* :attr:`PriorityClass.MOVE` — Move1/Move2/confirmation transactions.
  A stalled move strands a contract in its locked state on the source
  chain, so moves preempt everything else at the front door;
* :attr:`PriorityClass.VIEW` — read-path traffic: subscription
  bookkeeping and explicitly view-tagged requests.  Latency-sensitive
  but droppable without protocol damage;
* :attr:`PriorityClass.BULK` — everything else (transfers, deploys,
  ordinary calls).  Throughput traffic: first to shed, last to flush.

Classification is *default-by-payload, override-by-caller*: Move1 and
Move2 payloads classify as ``MOVE`` automatically, everything else as
``BULK``, and every submit path accepts ``priority=`` to re-tag a
request (a wallet may ship an urgent transfer as ``MOVE``-adjacent
``VIEW``, a crawler may volunteer its calls as ``BULK``).

Lower numeric value = higher priority, so ``sorted(PriorityClass)``
is flush order and ``reversed(...)`` is shed-search order.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Union

from repro.chain.tx import Move1Payload, Move2Payload, Transaction
from repro.errors import ConfigError


class PriorityClass(IntEnum):
    """Admission priority of one request; lower value flushes first."""

    MOVE = 0
    VIEW = 1
    BULK = 2

    def __init__(self, value: int):
        #: lower-case name used in metric labels and wire payloads (a
        #: plain attribute: admission reads it on every request)
        self.label = self._name_.lower()

    @classmethod
    def coerce(cls, value: Union["PriorityClass", str, int]) -> "PriorityClass":
        """Accept a member, its label or its value; :class:`ConfigError`
        (naming the field) on anything else."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            member = _BY_LABEL.get(value)
            if member is None:
                member = cls.__members__.get(value.upper())
            if member is not None:
                return member
        elif isinstance(value, int) and not isinstance(value, bool):
            if 0 <= value < len(FLUSH_ORDER):
                return FLUSH_ORDER[value]
        raise ConfigError(
            f"priority must be one of {[c.label for c in cls]} "
            f"(or a PriorityClass), got {value!r}"
        )


#: classes in flush order (highest priority first); a member's value is
#: its index here
FLUSH_ORDER = tuple(PriorityClass)
_BY_LABEL = {cls.label: cls for cls in FLUSH_ORDER}
#: classes in shed-search order (lowest priority first)
SHED_ORDER = tuple(reversed(FLUSH_ORDER))


def classify(tx: Transaction) -> PriorityClass:
    """Default class of a transaction nobody tagged explicitly."""
    if isinstance(tx.payload, (Move1Payload, Move2Payload)):
        return PriorityClass.MOVE
    return PriorityClass.BULK
