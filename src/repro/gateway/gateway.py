"""The request gateway: one audited front door in front of a node.

Everything a client sends — transfers, deploys, calls, whole
cross-chain moves — enters through :meth:`Gateway.submit` /
:meth:`Gateway.move` and is subject to the same admission discipline:

* **priority classes** — every request carries a
  :class:`~repro.gateway.classes.PriorityClass` (moves/confirms ahead
  of views/subscriptions ahead of bulk transfers).  Classes flush in
  strict priority order and shed in reverse: an arrival that finds the
  queue at bound evicts the most recent entry of the lowest backlogged
  class below its own, so bulk bursts never crowd out a move;
* **weighted-fair admission** — within a class, per-client FIFO lanes
  are served deficit-round-robin (8 entries per turn), so one
  aggressive client cannot monopolize a replica
  (:mod:`repro.gateway.fairqueue`);
* **replicas** — ``replicas=N`` splits the bounded stage N ways: each
  replica holds its own per-chain classed queues and overflow lots,
  and each client is pinned to one replica by a stable hash of its id
  (sha256, *not* the salted builtin ``hash``), so a client's requests
  stay FIFO within its lanes and a replay routes byte-identically.  A
  lone gateway is a fleet of one; everything below is shared;
* **bounded queues** — each replica gets one classed queue per served
  chain, bounded by ``limits.max_queue_depth``; memory stays bounded no
  matter how many clients pile on;
* **micro-batching** — one flush loop pours queued transactions into
  the chain mempools every ``limits.flush_interval`` simulated seconds,
  up to ``limits.batch_size`` per replica per chain per flush;
* **backpressure** — past the bound a request is shed by class: a
  typed :class:`~repro.errors.ShedByClass` attributed to the entry
  actually dropped (victim, not enqueuer).  Only a served move's own
  mid-move transactions park instead, in a bounded overflow lot that
  drains as flushes free slots.  Each flush measures every chain's
  mempool headroom once and the replicas' batches draw from it in an
  order that rotates tick by tick, so the *sum* of all replicas'
  flushes respects the bound one replica would and no replica is
  structurally first when headroom is scarce;
* **rate limiting** — a per-client token bucket
  (:class:`~repro.gateway.limits.TokenBucket`) sheds with
  :class:`~repro.errors.RateLimited` past the configured rate;
* **deadlines + idempotency** — a request admitted with
  ``request_timeout`` fails with :class:`~repro.errors.RequestTimeout`
  if unresolved by then, and a retry carrying the same idempotency key
  reattaches to the original submission instead of double-submitting.
  Keys bind only on successful admission, a retry after a timeout
  resolves to the original transaction's eventual receipt, and records
  are evicted ``limits.idempotency_retention`` seconds after
  resolution (token buckets are LRU-capped at ``limits.max_clients``,
  the same cap as the pin table);
* **subscriptions** — :meth:`watch_contract` / :meth:`watch_move` push
  contract events and move handle-state from the gateway's block
  subscription instead of clients polling
  (:mod:`repro.gateway.subscription`);
* **replayable evidence** — every admit / park / shed / flush decision
  lands on :attr:`Gateway.admission_log` as a tuple of primitives;
  :meth:`Gateway.log_digest` hashes the canonical JSON so two runs can
  be compared byte-for-byte;
* **error boundary** — raw ``KeyError``/``ValueError``/``TypeError``
  escapes are mapped to :class:`~repro.errors.InvalidRequest`, so every
  outcome a client can observe is a :class:`~repro.errors.ReproError`
  subclass carrying a machine-readable reason code.

The gateway also owns block production: ``start()`` starts the node's
driver and the flush loop together, so "serving" is one call.
Telemetry rides along — admissions, flushes and sheds feed the shared
:class:`~repro.telemetry.metrics.MetricsRegistry` with per-class
``gateway_class_*`` series (depth gauges are written once per flush),
and traced transactions get ``gateway.admit`` / ``gateway.flush``
events on their move traces (docs/OBSERVABILITY.md lists the names;
docs/SERVING.md the tier).
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from functools import partial
from typing import Deque, Dict, List, Optional, Sequence, Tuple, Union

from repro.chain.chain import Chain
from repro.chain.tx import (
    BytecodeCallPayload,
    CallPayload,
    Move1Payload,
    Transaction,
    named_contract,
)
from repro.crypto.keys import Address, KeyPair
from repro.errors import (
    ConfigError,
    GatewayError,
    InvalidRequest,
    NotAViewError,
    RateLimited,
    ReadOnlyReplicaError,
    RequestTimeout,
    ShedByClass,
    UnknownChainError,
)
from repro.gateway.classes import FLUSH_ORDER, MOVE_PAYLOADS, PriorityClass
from repro.gateway.fairqueue import ClassedFairQueue, QueueEntry
from repro.gateway.handles import (
    QUEUED,
    SUBMITTED,
    MoveHandle,
    RequestHandle,
)
from repro.gateway.limits import GatewayLimits, TokenBucket
from repro.gateway.subscription import Subscription, SubscriptionHub
from repro.ibc.bridge import CompletionFactory, MovePhases, drive_move
from repro.net.sim import EventHandle
from repro.node.node import Node
from repro.statedb.receipts import Receipt

#: accepted spellings of a priority override
PriorityLike = Union[PriorityClass, str, int]

#: one recorded admission decision: (sim time, kind, replica, chain,
#: class label, client id, batch size).  Primitives only — the log must
#: serialize to canonical JSON for the replay digest.
LogRecord = Tuple[float, str, int, int, str, str, int]

#: payload kinds that write to a contract, which a read-only replica
#: refuses (:meth:`Gateway._check_mirror_write`)
_WRITE_PAYLOADS = frozenset((CallPayload, BytecodeCallPayload, Move1Payload))


class _ChainMetrics:
    """One served chain's instruments, bound once.  The per-class ones
    are lists indexed by class value, so admission and flushing never
    build a ``(chain, class)`` key."""

    def __init__(self, metrics, chain_id: int):
        def per_class(instrument, name: str) -> list:
            return [instrument(name, chain=chain_id, cls=c.label) for c in FLUSH_ORDER]

        self.requests = metrics.counter("gateway_requests_total", chain=chain_id)
        self.admitted = metrics.counter("gateway_admitted_total", chain=chain_id)
        self.parked = metrics.counter("gateway_parked_total", chain=chain_id)
        self.depth = metrics.gauge("gateway_queue_depth", chain=chain_id)
        self.blocked_depth = metrics.gauge("gateway_blocked_depth", chain=chain_id)
        self.batches = metrics.counter("gateway_batches_total", chain=chain_id)
        self.batch_size = metrics.histogram("gateway_batch_size", chain=chain_id)
        self.class_admitted = per_class(metrics.counter, "gateway_class_admitted_total")
        self.class_depth = per_class(metrics.gauge, "gateway_class_depth")
        self.class_flushed = per_class(metrics.counter, "gateway_class_flushed_total")
        #: victim-attributed queue sheds: the class/client charged is the
        #: entry actually dropped, whichever path (fresh admission,
        #: class eviction, parked overflow) dropped it
        self.class_shed = per_class(metrics.counter, "gateway_queue_shed_total")


class _Replica:
    """The state whose bound is per replica: one classed fair queue and
    one overflow lot (mid-move transactions) per served chain."""

    __slots__ = ("index", "queues", "blocked")

    def __init__(self, index: int, chain_ids, limits: GatewayLimits):
        self.index = index
        self.queues: Dict[int, ClassedFairQueue] = {
            chain_id: ClassedFairQueue(limits.max_queue_depth)
            for chain_id in chain_ids
        }
        self.blocked: Dict[int, Deque[QueueEntry]] = {
            chain_id: deque() for chain_id in chain_ids
        }

    def queue_depth(self, chain_id: int) -> int:
        """Queued plus parked entries for one chain on this replica."""
        return self.queues[chain_id].depth + len(self.blocked[chain_id])


class Gateway:
    """Batched, rate-limited, backpressured, classed admission to a node
    through ``replicas`` client-pinned queue sets."""

    def __init__(
        self,
        node: Node,
        limits: Optional[GatewayLimits] = None,
        replicas: int = 1,
    ):
        if not isinstance(replicas, int) or isinstance(replicas, bool) or replicas < 1:
            raise ConfigError(
                f"replicas must be an int >= 1, got {replicas!r} — a gateway "
                "needs at least one replica to serve"
            )
        self.node = node
        self._sim = node.sim
        self.limits = limits if limits is not None else GatewayLimits()
        self.telemetry = node.telemetry
        self._chain_ids = sorted(node.chains)
        self.replicas: List[_Replica] = [
            _Replica(index, self._chain_ids, self.limits) for index in range(replicas)
        ]
        #: client id -> pinned replica, computed once per client (bounded
        #: by ``limits.max_clients``; see :meth:`replica_for`)
        self._pins: Dict[str, _Replica] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        #: (client_id, key) -> original handle, for idempotent retries
        self._by_key: Dict[Tuple[str, str], RequestHandle] = {}
        self._move_by_key: Dict[Tuple[str, str], MoveHandle] = {}
        #: the flush loop while serving; None while stopped
        self._flush_loop: Optional[EventHandle] = None
        #: flushes so far; picks which replica claims headroom first
        self._flushes = 0
        #: replayable admission evidence (see :data:`LogRecord`)
        self.admission_log: List[LogRecord] = []
        self.subscriptions = SubscriptionHub(self)

        metrics = self.telemetry.metrics
        self._m = {c: _ChainMetrics(metrics, c) for c in node.chains}
        self._metrics = metrics
        self._m_idempotent = metrics.counter("gateway_idempotent_hits_total")
        self._m_request_seconds = metrics.histogram("gateway_request_seconds")
        self._m_moves_started = metrics.counter("gateway_moves_total", status="started")
        self._m_moves_ok = metrics.counter("gateway_moves_total", status="ok")
        self._m_moves_failed = metrics.counter("gateway_moves_total", status="failed")
        metrics.gauge("gateway_fleet_replicas").set(replicas)
        self._m_ticks = metrics.counter("gateway_fleet_flush_ticks_total")
        self._m_replica_flushed = [
            metrics.counter("gateway_fleet_replica_flushed_total", replica=i)
            for i in range(replicas)
        ]

    def __len__(self) -> int:
        return len(self.replicas)

    def replica_for(self, client_id: str) -> _Replica:
        """The replica pinned to ``client_id`` (stable across runs and
        processes — sha256 of the id, never the salted builtin hash).

        The pin is a pure function of the id, so it is computed once
        per client and remembered; the table holds at most
        ``limits.max_clients`` pins and drops its oldest past that (an
        evicted client hashes to the same replica again).
        """
        replica = self._pins.get(client_id)
        if replica is None:
            if len(self._pins) >= self.limits.max_clients:
                del self._pins[next(iter(self._pins))]
            digest = hashlib.sha256(client_id.encode("utf-8")).digest()
            replica = self._pins[client_id] = self.replicas[
                int.from_bytes(digest[:8], "big") % len(self.replicas)
            ]
        return replica

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def started(self) -> bool:
        return self._flush_loop is not None

    def start(self) -> None:
        """Start serving: block production plus the one flush loop
        (idempotent)."""
        if self._flush_loop is not None:
            return
        self.node.start()
        self._flush_loop = self._sim.every(self.limits.flush_interval, self.flush)

    def stop(self) -> None:
        """Cancel the flush loop and stop block production."""
        if self._flush_loop is not None:
            self._flush_loop.cancel()
            self._flush_loop = None
        self.node.stop()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------

    def submit(
        self,
        tx: Transaction,
        chain_id: int,
        client_id: str = "",
        idempotency_key: Optional[str] = None,
        handle: Optional[RequestHandle] = None,
        priority: Optional[PriorityLike] = None,
    ) -> RequestHandle:
        """Admit one transaction via the client's pinned replica; never
        raises — the handle carries the typed outcome
        (``handle.result()`` re-raises rejections).

        ``priority`` re-tags the request's admission class; omitted,
        Move1/Move2 classify as ``MOVE`` and everything else as
        ``BULK``.  ``handle`` lets a transport pre-create the future on
        the client side of a simulated network hop; omitted, one is
        created here.
        """
        node = self.node
        if handle is None:
            handle = RequestHandle(chain_id, client_id, idempotency_key)
        handle._node = node
        try:
            now = self._sim.now
            if type(chain_id) is not int:  # True and 1.0 would find chain 1
                raise UnknownChainError(f"chain id must be an int, got {chain_id!r}")
            chain = node.chain(chain_id)  # raises UnknownChainError
            self._m[chain_id].requests.inc()
            if type(client_id) is not str:
                raise InvalidRequest(
                    f"client_id must be a str, got {type(client_id).__name__}"
                )

            key: Optional[Tuple[str, str]] = None
            if idempotency_key is not None:
                if type(idempotency_key) is not str:
                    raise InvalidRequest(
                        "idempotency_key must be a str, "
                        f"got {type(idempotency_key).__name__}"
                    )
                key = (client_id, idempotency_key)
                original = self._by_key.get(key)
                if original is not None:
                    self._m_idempotent.inc()
                    if isinstance(original.error, RequestTimeout):
                        # The original missed its deadline but its
                        # transaction was still flushed: reattach this
                        # retry to the eventual receipt instead of
                        # mirroring the stale timeout, with its own
                        # fresh deadline.
                        handle.tx_id = original.tx_id
                        original.on_late_receipt(
                            lambda src: handle._resolve(src.receipt, self.node.now)
                        )
                        if self.limits.request_timeout > 0 and not handle.done:
                            self._sim.schedule(
                                self.limits.request_timeout, self._expire, handle
                            )
                    else:
                        handle._mirror(original)
                    return handle

            if type(tx) is not Transaction:
                raise InvalidRequest(
                    f"expected a signed Transaction, got {type(tx).__name__}"
                )
            if (
                len(tx) != 8
                or type(tx.sender) is not Address
                or type(tx.public_key) is not bytes
                or type(tx.nonce) is not int
                or type(tx.signature) is not bytes
            ):
                # Only a record built around Transaction's constructor
                # can get here: its head could not be indexed or signed.
                raise InvalidRequest("transaction head or signature is not of the signed types")
            if not tx.signature:
                raise InvalidRequest("transaction is unsigned (no signature)")
            kind = type(tx.payload)
            if priority is None:
                cls = PriorityClass.MOVE if kind in MOVE_PAYLOADS else PriorityClass.BULK
            else:
                cls = PriorityClass.coerce(priority)
            if kind in _WRITE_PAYLOADS:
                self._check_mirror_write(tx, chain)
            self._charge_rate(client_id, now)

            handle.tx_id = tx.tx_id
            handle.admitted_at = now
            replica = self.replica_for(client_id)
            entry = QueueEntry(tx, handle, cls, client_id)
            self._enqueue(entry, replica, chain_id, park=False)
            if key is not None:
                # Bind only after admission succeeded: a shed or rejected
                # request must not wedge its key, so a retry after a
                # transient overload gets a fresh admission.
                self._by_key[key] = handle
                handle.on_done(lambda h: self._retire_key(self._by_key, key, h))
            if tx.meta:
                tracer = self.telemetry.tracer
                if tracer.enabled:
                    tracer.meta_event(
                        tx.meta, "gateway.admit", chain=chain_id, cls=cls.label,
                        replica=replica.index,
                    )
            if self.limits.request_timeout > 0:
                self._sim.schedule(self.limits.request_timeout, self._expire, handle)
        except GatewayError as error:
            self._reject(handle, error)
        except ConfigError as error:  # an override naming no class
            self._reject(handle, InvalidRequest(str(error)))
        except (KeyError, ValueError, TypeError) as error:
            # The taxonomy boundary: nothing rawer than a ReproError
            # subclass may escape to a client.
            self._reject(
                handle,
                InvalidRequest(f"malformed request: {type(error).__name__}: {error}"),
            )
        return handle

    def _charge_rate(self, client_id: str, now: float) -> None:
        """Spend one token from the client's bucket (typed shed past the
        rate; no-op without a rate limit).  Buckets are LRU-capped at
        ``limits.max_clients``."""
        if self.limits.rate_limit <= 0:
            return
        # Re-insertion keeps the dict in recency order, so the cap
        # evicts the least-recently-active client's bucket (an idle
        # evictee simply starts over with a full burst allowance).
        bucket = self._buckets.pop(client_id, None)
        if bucket is None:
            while len(self._buckets) >= self.limits.max_clients:
                self._buckets.pop(next(iter(self._buckets)))
            bucket = TokenBucket(
                self.limits.rate_limit, self.limits.rate_burst, now=now
            )
        self._buckets[client_id] = bucket
        if not bucket.take(now):
            raise RateLimited(
                f"client {client_id or '<anonymous>'} exceeded "
                f"{self.limits.rate_limit}/s (burst {self.limits.rate_burst})"
            )

    def _check_mirror_write(self, tx: Transaction, chain: Chain) -> None:
        """Reject writes against read-only replicas at admission.

        Execution would abort them anyway (the world state refuses every
        write to a mirror with :class:`ReadOnlyReplicaError` in-block),
        but failing fast at the front door keeps a doomed transaction out
        of the queues and gives the client the typed rejection
        immediately.  View-method calls pass — mirrors exist to serve
        reads.  ``tx`` carries one of :data:`_WRITE_PAYLOADS`; one whose
        contract field is not an address names none and passes.
        """
        payload = tx.payload
        target = named_contract(payload)
        if target is None or not chain.state.is_mirror(target):
            return
        record = chain.state.contract(target)
        if type(payload) is CallPayload:
            try:
                chain.runtime._view_of(record, payload.method)
                return  # reads are what replicas are for
            except NotAViewError:
                pass
        raise ReadOnlyReplicaError(
            f"contract {target} on chain {chain.chain_id} is a read-only "
            f"replica of chain {record.location}; submit writes to the active copy"
        )

    def _enqueue(
        self, entry: QueueEntry, replica: _Replica, chain_id: int, park: bool
    ) -> None:
        """Classed admission under the replica's bound; ``park=True``
        uses the overflow lot instead of shedding when even class-aware
        eviction finds no lower-class victim."""
        m = self._m[chain_id]
        result = replica.queues[chain_id].push(entry)
        if not result.admitted:
            blocked = replica.blocked[chain_id]
            if not park or len(blocked) >= self.limits.max_blocked:
                # Here the dropped entry IS the newcomer.
                raise self._shed(
                    entry,
                    replica,
                    chain_id,
                    f"admission queue at bound ({self.limits.max_queue_depth} queued"
                    + (f", {len(blocked)} parked" if park else "")
                    + f") with no class below {entry.cls.label} to evict",
                )
            blocked.append(entry)
            entry.handle.status = QUEUED
            m.parked.inc()
            self._record("park", replica.index, chain_id, entry.cls.label, entry.client)
            return
        cls = entry.cls
        if result.victim is not None:
            why = (
                f"queue slot reclaimed by a {cls.label}-class arrival "
                f"({self.limits.max_queue_depth} queued)"
            )
            self._reject(
                result.victim.handle, self._shed(result.victim, replica, chain_id, why)
            )
        entry.handle.status = QUEUED
        m.admitted.inc()
        m.class_admitted[cls].inc()
        self._record("admit", replica.index, chain_id, cls.label, entry.client)

    def _shed(
        self, dropped: QueueEntry, replica: _Replica, chain_id: int, why: str
    ) -> ShedByClass:
        """The typed queue shed, attributed to the entry actually
        dropped — the class/client that lost the slot, whether a
        newcomer that found no lower class to evict or the victim of a
        higher-class arrival — never to whoever triggered the drop:
        whoever leaves the queue without flushing is whom the shed
        metric names."""
        self._m[chain_id].class_shed[dropped.cls].inc()
        self._record("shed", replica.index, chain_id, dropped.cls.label, dropped.client)
        return ShedByClass(
            f"chain {chain_id} {why}; retry after the next flush",
            shed_class=dropped.cls.label,
            shed_client=dropped.client,
            chain_id=chain_id,
        )

    def _retire_key(
        self, table: Dict, key: Tuple[str, str], handle, at_once: bool = False
    ) -> None:
        """Evict an idempotency record — now if ``at_once``, else
        ``idempotency_retention`` seconds after its handle resolved (0
        retains forever).  The identity check keeps a re-admission
        under the same key alive."""

        def evict() -> None:
            if table.get(key) is handle:
                del table[key]

        retention = self.limits.idempotency_retention
        if at_once:
            evict()
        elif retention > 0:
            self.node.sim.schedule(retention, evict)

    def _reject(self, handle: RequestHandle, error: GatewayError) -> None:
        self._metrics.counter("gateway_rejected_total", reason=error.code).inc()
        handle._fail(error, self.node.now)

    def _expire(self, handle: RequestHandle) -> None:
        if handle.done:
            return
        self._reject(
            handle,
            RequestTimeout(
                f"request missed its {self.limits.request_timeout}s deadline "
                f"(last status: {handle.status}); the transaction may still "
                "execute — retry with the same idempotency key to reattach"
            ),
        )

    # ------------------------------------------------------------------
    # Subscriptions (the push path)
    # ------------------------------------------------------------------

    def watch_contract(
        self, chain_id: int, target: Address, client_id: str = ""
    ) -> Subscription:
        """Subscribe to committed transactions touching ``target``.

        VIEW-class work: creating the subscription spends one token
        from the client's rate bucket (typed :class:`RateLimited` past
        it) — the pushed events themselves are free.
        """
        self.node.chain(chain_id)  # raises UnknownChainError
        self._charge_rate(client_id, self.node.now)
        return self.subscriptions.watch_contract(chain_id, target, client_id)

    def watch_move(self, handle: MoveHandle, client_id: str = "") -> Subscription:
        """Subscribe to a served move's handle-state transitions."""
        self._charge_rate(client_id, self.node.now)
        return self.subscriptions.watch_move(handle, client_id)

    # ------------------------------------------------------------------
    # Micro-batch flushing
    # ------------------------------------------------------------------

    def flush(self) -> int:
        """Pour one micro-batch per replica per chain into the mempools;
        returns the number of transactions submitted.

        End-to-end backpressure: each chain's mempool headroom is
        measured once, and the replicas' batches draw from it in turn —
        the backlog must stay in the bounded queues (and shed), not
        leak downstream.  The replica that claims first rotates tick
        by tick.  The running gateway calls this on its own clock;
        tests may call it directly.
        """
        limits = self.limits
        headroom = limits.mempool_headroom
        room = {
            chain_id: max(0, headroom * chain.params.max_block_txs - len(chain.mempool))
            for chain_id, chain in self.node.chains.items()
        }
        self._m_ticks.inc()
        count = len(self.replicas)
        first = self._flushes % count
        self._flushes += 1
        tracer = self.telemetry.tracer
        resolve = self._resolve
        submitted = 0
        for offset in range(count):
            replica = self.replicas[(first + offset) % count]
            flushed = 0
            for chain_id in self._chain_ids:
                queue = replica.queues[chain_id]
                blocked = replica.blocked[chain_id]
                m = self._m[chain_id]
                class_flushed = m.class_flushed
                # Drain the overflow lot into freed queue slots first:
                # parked requests enter their class lanes before this
                # flush's pop, so a parked move still outranks queued bulk.
                self._promote_parked(replica, chain_id)
                chain = self.node.chains[chain_id]
                grant = min(limits.batch_size, queue.depth + len(blocked), room[chain_id])
                room[chain_id] -= grant
                batch = []
                while len(batch) < grant and queue.depth:
                    batch.extend(queue.pop(grant - len(batch)))
                    # Popping freed slots: promote more parked entries so
                    # the overflow lot drains in this same flush (their
                    # class lanes still decide the order of the next pop).
                    self._promote_parked(replica, chain_id)
                for entry in batch:
                    handle, tx = entry.handle, entry.tx
                    if handle.status == QUEUED:
                        handle.status = SUBMITTED
                    # A handle that expired while queued is submitted
                    # anyway: its timeout promised "the transaction may
                    # still execute", and the late receipt is what a retry
                    # under the same idempotency key reattaches to.
                    chain.wait_for(tx.tx_id, partial(resolve, handle))
                    chain.submit(tx)
                    class_flushed[entry.cls].inc()
                    if tx.meta and tracer.enabled:
                        tracer.meta_event(
                            tx.meta, "gateway.flush", chain=chain_id,
                            cls=entry.cls.label, replica=replica.index,
                        )
                if batch:
                    m.batches.inc()
                    m.batch_size.observe(len(batch))
                    self._record("flush", replica.index, chain_id, "", "", len(batch))
                flushed += len(batch)
            self._m_replica_flushed[replica.index].inc(flushed)
            submitted += flushed
        # The depth gauges, once per flush from gateway-wide sums.
        for chain_id in self._chain_ids:
            m = self._m[chain_id]
            queues = [r.queues[chain_id] for r in self.replicas]
            m.depth.set(sum(q.depth for q in queues))
            m.blocked_depth.set(sum(len(r.blocked[chain_id]) for r in self.replicas))
            for cls in FLUSH_ORDER:
                m.class_depth[cls].set(sum(q.class_depth[cls] for q in queues))
        return submitted

    def _promote_parked(self, replica: _Replica, chain_id: int) -> None:
        """Move parked entries into free queue slots (FIFO from the lot,
        then their class lanes take over)."""
        blocked = replica.blocked[chain_id]
        if not blocked:
            return
        queue = replica.queues[chain_id]
        m = self._m[chain_id]
        while blocked and queue.depth < self.limits.max_queue_depth:
            entry = blocked.popleft()
            queue.push(entry)
            m.admitted.inc()
            m.class_admitted[entry.cls].inc()
            self._record("admit", replica.index, chain_id, entry.cls.label, entry.client)

    def _resolve(self, handle: RequestHandle, receipt: Receipt) -> None:
        now = self._sim.now
        if handle.done:
            if isinstance(handle.error, RequestTimeout):
                # The deadline fired first but the transaction executed
                # after all — record the receipt so retries reattach.
                handle._record_late(receipt, now)
            return
        if handle.admitted_at is not None:
            self._m_request_seconds.observe(now - handle.admitted_at)
        handle._resolve(receipt, now)

    # ------------------------------------------------------------------
    # Cross-chain moves as futures
    # ------------------------------------------------------------------

    def move(
        self,
        mover: KeyPair,
        contract: Address,
        source_chain: int,
        target_chain: int,
        completions: Sequence[CompletionFactory] = (),
        client_id: str = "",
        idempotency_key: Optional[str] = None,
    ) -> MoveHandle:
        """Run a full cross-chain move through the admission path.

        The choreography is :func:`repro.ibc.bridge.drive_move` — the
        one :meth:`~repro.ibc.bridge.IBCBridge.move_contract` runs —
        but its ``send`` puts every transaction through the client's
        pinned replica's queues, batching and backpressure, and the
        caller gets a :class:`MoveHandle` future.  Mid-move
        transactions are ``MOVE``-class (they evict bulk under
        pressure) and use the parking path besides, so a momentary
        burst does not strand a contract in its locked state; if even
        the overflow lot is full, the move fails with the typed shed
        error in ``handle.error``.
        """
        if idempotency_key is not None:
            original = self._move_by_key.get((client_id, idempotency_key))
            if original is not None:
                self._m_idempotent.inc()
                return original
        phases = MovePhases(contract, source_chain, target_chain, self.node.now)
        handle = MoveHandle(phases, idempotency_key=idempotency_key)
        handle._node = self.node
        try:
            source = self.node.chain(source_chain)
            self.node.chain(target_chain)
        except GatewayError as error:
            phases.success = False
            phases.error = str(error)
            self._m_moves_failed.inc()
            handle._fail(error)
            return handle
        replica = self.replica_for(client_id)

        def send(chain_id: int, tx: Transaction, on_receipt, on_reject) -> None:
            """Admit a mid-move transaction (MOVE class, parked past the
            bound rather than shed)."""
            now = self.node.now
            inner = RequestHandle(chain_id, client_id=client_id)
            inner.tx_id = tx.tx_id
            inner.admitted_at = now
            inner.on_done(
                lambda h: on_receipt(h.receipt) if h.error is None else on_reject(h.error)
            )
            entry = QueueEntry(tx, inner, PriorityClass.MOVE, client_id)
            try:
                self._enqueue(entry, replica, chain_id, park=True)
            except GatewayError as error:
                self._reject(inner, error)

        def done(rejection: Optional[GatewayError]) -> None:
            # Protocol failures live in the phases; only a gateway-level
            # rejection (a mid-move shed) becomes the handle's error.
            (self._m_moves_ok if phases.success else self._m_moves_failed).inc()
            if phases.success:
                handle._finish()
            else:
                handle._fail(rejection)

        if idempotency_key is not None:
            move_key = (client_id, idempotency_key)
            self._move_by_key[move_key] = handle
            # A gateway-level failure (e.g. a mid-move shed) releases
            # the key at once, so a retry re-attempts the move.
            handle.on_done(
                lambda h: self._retire_key(
                    self._move_by_key, move_key, h, at_once=h.error is not None
                )
            )
        self._m_moves_started.inc()
        drive_move(
            self.node.sim,
            self.telemetry.tracer,
            source,
            mover,
            phases,
            send,
            done,
            completions=completions,
            on_stage=handle._advance,
        )
        return handle

    # ------------------------------------------------------------------
    # Reads (replica-routed when a replication manager is attached)
    # ------------------------------------------------------------------

    def view(
        self,
        chain_id: int,
        target: Address,
        method: str,
        *args,
    ):
        """Serve a read-only query, preferring the copy on ``chain_id``.

        With a replication manager attached
        (:meth:`~repro.node.node.Node.attach_replication`), the read
        routes to the nearest usable copy — the active contract on
        ``chain_id``, else a ``LIVE`` replica there, else the active
        copy wherever it lives; a replica that cannot serve raises a
        typed :class:`~repro.errors.ReplicaUnavailable`, never stale
        state.
        Without a manager this is exactly ``node.view``.
        """
        manager = self.node.replication
        if manager is None:
            return self.node.view(chain_id, target, method, *args)
        return manager.read(target, method, *args, prefer_chain=chain_id)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def queue_depth(self, chain_id: int) -> int:
        """Unflushed requests (queued + parked) for one chain, summed
        over the replicas."""
        return sum(r.queue_depth(chain_id) for r in self.replicas)

    def class_depths(self, chain_id: int) -> Dict[str, int]:
        """Queue depth per priority class for one chain, summed over
        the replicas."""
        totals = dict.fromkeys((c.label for c in FLUSH_ORDER), 0)
        for replica in self.replicas:
            for label, depth in replica.queues[chain_id].depths_by_class().items():
                totals[label] += depth
        return totals

    @property
    def peak_queue_depth(self) -> Dict[int, int]:
        """Per-chain high-water mark, maxed across replicas (the bound
        audit: no replica's queue ever exceeded ``max_queue_depth``)."""
        return {
            c: max(r.queues[c].peak_depth for r in self.replicas)
            for c in self._chain_ids
        }

    def _per_replica(self) -> List[Dict[int, int]]:
        return [{c: r.queue_depth(c) for c in self._chain_ids} for r in self.replicas]

    def stats(self) -> Dict[str, object]:
        """Queue depths, class splits and high-water marks (audits).
        ``queued`` counts queue + parked, as :meth:`queue_depth` does;
        ``parked`` is the overflow-lot share of it."""
        chains = self._chain_ids
        return {
            "replicas": len(self.replicas),
            "queued": {c: self.queue_depth(c) for c in chains},
            "parked": {c: sum(len(r.blocked[c]) for r in self.replicas) for c in chains},
            "classes": {c: self.class_depths(c) for c in chains},
            "peak_queue_depth": self.peak_queue_depth,
            "per_replica": self._per_replica(),
        }

    def health(self) -> Dict[str, object]:
        """Serving/degraded-mode status a client can poll.

        Always reports the gateway's own view — whether it is serving
        and how full each chain's admission queues are (with the
        per-class and per-replica splits); when the node hosts a
        :class:`~repro.health.monitor.HealthMonitor`
        (:meth:`~repro.node.node.Node.attach_health`), the monitor's
        per-target health map and currently firing alerts ride along.
        ``degraded`` is the one-bit summary: an alert is firing, some
        target is unhealthy, or some replica's queue is at its bound
        (i.e. the gateway is shedding).
        """
        bound = self.limits.max_queue_depth
        chains = self._chain_ids
        per_replica = self._per_replica()
        monitor = self.node.health
        targets: Dict[str, str] = {}
        alerts: list = []
        if monitor is not None:
            targets = monitor.states_text()
            alerts = monitor.firing()
        degraded = (
            bool(alerts)
            or any(state == "unhealthy" for state in targets.values())
            or any(depth >= bound for depths in per_replica for depth in depths.values())
        )
        return {
            "serving": self.started,
            "degraded": degraded,
            "replicas": len(self.replicas),
            "queues": {c: self.queue_depth(c) for c in chains},
            "classes": {c: self.class_depths(c) for c in chains},
            "per_replica": per_replica,
            "queue_bound": bound,
            "targets": targets,
            "alerts": alerts,
        }

    # ------------------------------------------------------------------
    # The admission log (replay evidence)
    # ------------------------------------------------------------------

    def _record(
        self, kind: str, replica: int, chain_id: int, cls: str, client: str, n: int = 0
    ) -> None:
        self.admission_log.append(
            (round(self._sim.now, 9), kind, replica, chain_id, cls, client, n)
        )

    def log_digest(self) -> str:
        """sha256 over the canonical-JSON admission log — equal digests
        mean byte-identical admission, shed and flush decisions."""
        payload = json.dumps(self.admission_log, separators=(",", ":"), sort_keys=False)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
