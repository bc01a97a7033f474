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

from repro.chain.tx import Move1Payload, Move2Payload
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
        """Accept a member, its label (any case) or its value — exact
        types only, so ``True`` and ``1.0`` name no class;
        :class:`ConfigError` (naming the field) on anything else."""
        member = _BY_KEY.get(value) if type(value) in _KEY_TYPES else None
        if member is None and type(value) is str:
            member = cls.__members__.get(value.upper())
        if member is None:
            raise ConfigError(
                f"priority must be one of {[c.label for c in cls]} "
                f"(or a PriorityClass), got {value!r}"
            )
        return member


#: classes in flush order (highest priority first); a member's value is
#: its index here
FLUSH_ORDER = tuple(PriorityClass)
#: classes in shed-search order (lowest priority first)
SHED_ORDER = tuple(reversed(FLUSH_ORDER))

#: every accepted spelling of a class but a case variant of its name:
#: the members (which, being ``IntEnum``, also answer to their values)
#: and their labels — one table read per override
_BY_KEY = {**{c: c for c in FLUSH_ORDER}, **{c.label: c for c in FLUSH_ORDER}}
_KEY_TYPES = frozenset((PriorityClass, str, int))

#: the payload kinds that classify as ``MOVE`` by default (the rule
#: :meth:`~repro.gateway.gateway.Gateway.submit` applies to untagged
#: requests)
MOVE_PAYLOADS = frozenset((Move1Payload, Move2Payload))
