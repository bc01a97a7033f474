"""Transaction mempool: FIFO with de-duplication and a sender index.

Admission is O(1): pending transactions live in an ``OrderedDict``
keyed by tx id (FIFO order approximates gossip arrival order, which is
what the paper's clients observe), and a ``sender -> {nonce}`` index is
maintained alongside so duplicate detection, per-sender queries and
nonce-replay checks never scan the pool — with tens of thousands of
transactions backed up behind a saturated shard, a linear scan per
admission would turn the mempool itself into the bottleneck.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, List, Optional, Set

from repro.chain.tx import Transaction
from repro.crypto.keys import Address
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
        #: sender -> set of pending nonces (the admission index)
        self._by_sender: Dict[Address, Set[int]] = {}
        metrics = metrics if metrics is not None else MetricsRegistry()
        self._m_admitted = metrics.counter("mempool_admitted_total", chain=chain_id)
        self._m_duplicates = metrics.counter("mempool_duplicates_total", chain=chain_id)
        self._m_depth = metrics.gauge("mempool_depth", chain=chain_id)

    def add(self, tx: Transaction) -> bool:
        """Queue a transaction; returns False for duplicates.

        O(1): one pool-dict insert plus one sender-index insert — no
        iteration over pending transactions, whatever the depth.
        """
        pending, tx_id = self._pending, tx.tx_id
        if tx_id in pending:
            self._m_duplicates.inc()
            return False
        pending[tx_id] = tx
        nonces = self._by_sender.get(tx.sender)
        if nonces is None:
            nonces = self._by_sender[tx.sender] = set()
        nonces.add(tx.nonce)
        self._m_admitted.inc()
        self._m_depth.set(len(pending))
        return True

    def _unindex(self, tx: Transaction) -> None:
        nonces = self._by_sender.get(tx.sender)
        if nonces is not None:
            nonces.discard(tx.nonce)
            if not nonces:
                del self._by_sender[tx.sender]

    def take(self, limit: int) -> List[Transaction]:
        """Dequeue up to ``limit`` transactions (oldest first)."""
        pending, unindex = self._pending, self._unindex
        out: List[Transaction] = []
        for _ in range(min(limit, len(pending))):
            tx = pending.popitem(last=False)[1]
            unindex(tx)
            out.append(tx)
        if out:
            self._m_depth.set(len(pending))
        return out

    def remove(self, tx_id: str) -> Optional[Transaction]:
        """Drop a specific pending transaction (e.g. seen in a block)."""
        tx = self._pending.pop(tx_id, None)
        if tx is not None:
            self._unindex(tx)
            self._m_depth.set(len(self._pending))
        return tx

    # -- sender-index queries (O(1) in pool depth) ---------------------

    def pending_count_of(self, sender: Address) -> int:
        """How many transactions from ``sender`` are pending."""
        nonces = self._by_sender.get(sender)
        return len(nonces) if nonces is not None else 0

    def has_pending_nonce(self, sender: Address, nonce: int) -> bool:
        """Is a transaction with this (sender, nonce) already queued?
        (The nonce-replay probe a stricter admission policy would use.)"""
        nonces = self._by_sender.get(sender)
        return nonces is not None and nonce in nonces

    def __len__(self) -> int:
        return len(self._pending)

    def __contains__(self, tx_id: str) -> bool:
        return tx_id in self._pending
