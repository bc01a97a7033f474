"""Transaction mempool: one FIFO dict with de-duplication.

Pending transactions live in one ``OrderedDict`` keyed by tx id: FIFO
order approximates gossip arrival order, which is what the paper's
clients observe, and the key makes duplicate detection one membership
test.  Admission and each dequeued transaction are O(1) dict work —
with tens of thousands of transactions backed up behind a saturated
shard, a scan per admission would turn the mempool itself into the
bottleneck.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import List, Optional

from repro.chain.tx import Transaction
from repro.telemetry.metrics import MetricsRegistry


class Mempool:
    """Pending transactions awaiting inclusion.

    FIFO order approximates the gossip arrival order the paper's
    clients observe; duplicates (same tx id) are dropped.  Admission,
    rejection and queue depth feed the chain's shared
    :class:`~repro.telemetry.metrics.MetricsRegistry`.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None, chain_id: int = 0):
        self._pending: "OrderedDict[str, Transaction]" = OrderedDict()
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_admitted = metrics.counter("mempool_admitted_total", chain=chain_id)
        self._m_duplicates = metrics.counter("mempool_duplicates_total", chain=chain_id)
        self._m_depth = metrics.gauge("mempool_depth", chain=chain_id)

    def add(self, tx: Transaction) -> bool:
        """Queue a transaction; returns False for duplicates.

        O(1): one membership test and one dict insert — no iteration
        over pending transactions, whatever the depth.
        """
        pending, tx_id = self._pending, tx.tx_id
        if tx_id in pending:
            self._m_duplicates.inc()
            return False
        pending[tx_id] = tx
        self._m_admitted.inc()
        self._m_depth.set(len(pending))
        return True

    def take(self, limit: int) -> List[Transaction]:
        """Dequeue up to ``limit`` transactions (oldest first)."""
        pending = self._pending
        out = [pending.popitem(last=False)[1] for _ in range(min(limit, len(pending)))]
        if out:
            self._m_depth.set(len(pending))
        return out

    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._pending
