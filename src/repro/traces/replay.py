"""DAG-driven trace replay against a sharded cluster (Section VII-A).

The replayer mirrors the paper's client host: the whole dependency DAG
is pre-processed in memory; leaf operations are broadcast to their
shards, each shard's in-flight window capped at the configured
outstanding-transaction limit; every committed transaction updates the
DAG and newly freed operations are submitted — until the trace drains.

Operation → transaction expansion:

* ``promo``  — one ``create_promo_kitty`` on the shard that hash
  partitioning assigns to the cat id;
* ``approve`` — one ``approve_siring`` on the sire's current shard;
* ``transfer`` — one ``transfer_ownership`` on the cat's shard;
* ``breed`` — if matron and sire share a shard: ``breed_with`` then
  ``give_birth`` (two transactions); otherwise a **cross-shard**
  operation: Move1(sire) → wait p blocks → Move2 → ``breed_with`` →
  ``give_birth``.  The child is created on the matron's shard, so load
  distributes organically; the sire stays where it bred.

The report captures the Fig. 5 quantities: aggregate committed-tx/s
over time, the cross-shard operation rate (paper: 5.86 / 7.93 / 7.85 %
for 2/4/8 shards), and the first time each shard runs out of ready
transactions ("Limit reached" marks in Fig. 5 right).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.apps.kitties import KittyRegistry
from repro.chain.tx import CallPayload, DeployPayload, sign_transaction
from repro.crypto.keys import Address, KeyPair
from repro.errors import StateError
from repro.ibc.bridge import IBCBridge
from repro.sharding.cluster import ShardedCluster
from repro.sharding.partition import shard_of_int
from repro.traces.dag import DependencyDAG
from repro.traces.events import APPROVE, PROMO, TRANSFER, TraceOp


@dataclass
class ReplayReport:
    """Outcome of one trace replay."""

    num_shards: int
    trace_ops: int
    #: ``(time, count)`` per commit callback: a cross-shard breed's Move1
    #: and Move2 are one entry of 2
    completions: List[Tuple[float, int]] = field(default_factory=list)
    ops_completed: int = 0
    txs_committed: int = 0
    cross_shard_ops: int = 0
    failed_txs: int = 0
    finished_at: Optional[float] = None
    #: first simulated time each shard had spare window but nothing
    #: ready to send (Fig. 5 right's dashed "Limit reached" marks)
    starved_at: Dict[int, float] = field(default_factory=dict)

    @property
    def cross_rate(self) -> float:
        return self.cross_shard_ops / self.ops_completed if self.ops_completed else 0.0

    def avg_throughput(self) -> float:
        """Committed transactions per simulated second."""
        if not self.finished_at:
            return 0.0
        return self.txs_committed / self.finished_at

    def throughput_series(
        self, bucket: float = 10.0, end: Optional[float] = None
    ) -> List[Tuple[float, float]]:
        """``(bucket_start, tx/s)`` pairs up to ``end`` (default: the last
        completion) — Fig. 5 (right)'s series."""
        if not self.completions and end is None:
            return []
        horizon = end if end is not None else max(t for t, _ in self.completions)
        buckets: Dict[int, int] = defaultdict(int)
        for t, count in self.completions:
            buckets[int(t // bucket)] += count
        out: List[Tuple[float, float]] = []
        index = 0
        while index * bucket < horizon:
            out.append((index * bucket, buckets.get(index, 0) / bucket))
            index += 1
        return out


@dataclass
class _CatState:
    address: Optional[Address] = None
    shard: int = 0
    owner: int = 0  # user index


class KittiesReplayer:
    """Replays a synthetic CryptoKitties trace on a cluster."""

    def __init__(
        self,
        cluster: ShardedCluster,
        trace: List[TraceOp],
        outstanding_limit: int = 250,
    ):
        self.cluster = cluster
        self.trace = trace
        self.dag = DependencyDAG(self.trace)
        self.outstanding_limit = outstanding_limit
        self.bridge = IBCBridge(cluster.sim, cluster.shards)
        self.users = {
            index: KeyPair.from_name(f"kitty-user-{index}")
            for index in self._user_indices()
        }
        self.game_owner = KeyPair.from_name("kitty-game-owner")
        self.registries: List[Optional[Address]] = [None] * cluster.num_shards
        self.cats: Dict[int, _CatState] = {}
        self._outstanding = [0] * cluster.num_shards
        self._waiting: List[Deque[int]] = [deque() for _ in range(cluster.num_shards)]
        self._reached_limit = [False] * cluster.num_shards
        self.report = ReplayReport(
            num_shards=cluster.num_shards, trace_ops=len(self.trace)
        )

    def _user_indices(self):
        indices = set()
        for op in self.trace:
            for key in ("owner", "matron_owner", "new_owner"):
                if key in op.params:
                    indices.add(op.params[key])
        return indices

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def run(self, max_time: float = 100_000.0) -> ReplayReport:
        """Replay until the DAG drains (or ``max_time`` sim-seconds)."""
        sim = self.cluster.sim
        self.cluster.start()
        self._deploy_registries()
        while not self.dag.done and sim.now < max_time:
            if sim.run(until=sim.now + 50.0, max_events=None) == 0 and not self.dag.done:
                if sim.pending() == 0:
                    raise StateError("replay stalled with pending operations")
        self.report.finished_at = sim.now if self.dag.done else None
        return self.report

    def _deploy_registries(self) -> None:
        pending = [self.cluster.num_shards]

        def after(index: int, receipt) -> None:
            assert receipt.success, receipt.error
            self.registries[index] = receipt.return_value
            pending[0] -= 1
            if pending[0] == 0:
                self._dispatch(self.dag.take_ready())

        for index in range(self.cluster.num_shards):
            tx = sign_transaction(
                self.game_owner, DeployPayload(code_hash=KittyRegistry.CODE_HASH)
            )
            self.cluster.shard(index).wait_for(tx.tx_id, lambda r, i=index: after(i, r))
            self.cluster.submit(index, tx)

    # ------------------------------------------------------------------
    # Scheduling with the outstanding-transaction window
    # ------------------------------------------------------------------

    def _primary_shard(self, op: TraceOp) -> int:
        if op.kind == PROMO:
            return shard_of_int(op.params["cat"], self.cluster.num_shards)
        if op.kind == APPROVE:
            return self.cats[op.params["sire"]].shard
        if op.kind == TRANSFER:
            return self.cats[op.params["cat"]].shard
        return self.cats[op.params["matron"]].shard  # breed

    def _dispatch(self, op_ids: List[int]) -> None:
        for op_id in op_ids:
            op = self.dag.ops[op_id]
            shard = self._primary_shard(op)
            if self._outstanding[shard] >= self.outstanding_limit:
                self._waiting[shard].append(op_id)
            else:
                self._execute(op, shard)

    def _drain_waiting(self, shard: int) -> None:
        queue = self._waiting[shard]
        while queue and self._outstanding[shard] < self.outstanding_limit:
            op = self.dag.ops[queue.popleft()]
            # The op's primary shard may have changed while it waited
            # (its cat moved); re-route if so.
            current = self._primary_shard(op)
            if current != shard:
                self._dispatch([op.op_id])
            else:
                self._execute(op, shard)

    def _note_starvation(self) -> None:
        """Record the first time each shard's window can no longer be
        kept full (Fig. 5 right: "the point when each one of the eight
        shards had less outgoing transactions than established at the
        beginning").  A shard must have filled its window once before
        it can be considered starved."""
        now = self.cluster.sim.now
        for shard in range(self.cluster.num_shards):
            if self._outstanding[shard] >= self.outstanding_limit:
                self._reached_limit[shard] = True
            if shard in self.report.starved_at or not self._reached_limit[shard]:
                continue
            if self._outstanding[shard] < self.outstanding_limit and not self._waiting[shard]:
                self.report.starved_at[shard] = now

    # ------------------------------------------------------------------
    # Transaction plumbing
    # ------------------------------------------------------------------

    def _submit(self, shard: int, keypair: KeyPair, payload, on_receipt) -> None:
        tx = sign_transaction(keypair, payload)
        self._outstanding[shard] += 1

        def callback(receipt) -> None:
            self._outstanding[shard] -= 1
            self.report.txs_committed += 1
            self.report.completions.append((self.cluster.sim.now, 1))
            if not receipt.success:
                self.report.failed_txs += 1
            on_receipt(receipt)
            self._drain_waiting(shard)

        self.cluster.shard(shard).wait_for(tx.tx_id, callback)
        self.cluster.submit(shard, tx)

    def _complete_op(self, op: TraceOp) -> None:
        self.report.ops_completed += 1
        freed = self.dag.complete(op.op_id)
        self._dispatch(freed)
        self._note_starvation()

    # ------------------------------------------------------------------
    # Op execution
    # ------------------------------------------------------------------

    def _execute(self, op: TraceOp, shard: int) -> None:
        if op.kind == PROMO:
            self._run_promo(op, shard)
        elif op.kind == APPROVE:
            self._run_approve(op, shard)
        elif op.kind == TRANSFER:
            self._run_transfer(op, shard)
        else:
            self._run_breed(op, shard)

    def _run_promo(self, op: TraceOp, shard: int) -> None:
        owner = self.users[op.params["owner"]]
        registry = self.registries[shard]

        def done(receipt) -> None:
            assert receipt.success, f"promo failed: {receipt.error}"
            self.cats[op.params["cat"]] = _CatState(
                address=receipt.return_value, shard=shard, owner=op.params["owner"]
            )
            self._complete_op(op)

        self._submit(
            shard,
            self.game_owner,
            CallPayload(registry, "create_promo_kitty", (owner.address,)),
            done,
        )

    def _run_approve(self, op: TraceOp, shard: int) -> None:
        sire = self.cats[op.params["sire"]]
        sire_owner = self.users[sire.owner]
        matron_owner = self.users[op.params["matron_owner"]]

        def done(receipt) -> None:
            assert receipt.success, f"approve failed: {receipt.error}"
            self._complete_op(op)

        self._submit(
            shard,
            sire_owner,
            CallPayload(sire.address, "approve_siring", (matron_owner.address,)),
            done,
        )

    def _run_transfer(self, op: TraceOp, shard: int) -> None:
        cat = self.cats[op.params["cat"]]
        old_owner = self.users[cat.owner]
        new_owner_index = op.params["new_owner"]
        new_owner = self.users[new_owner_index]

        def done(receipt) -> None:
            assert receipt.success, f"transfer failed: {receipt.error}"
            cat.owner = new_owner_index
            self._complete_op(op)

        self._submit(
            shard,
            old_owner,
            CallPayload(cat.address, "transfer_ownership", (new_owner.address,)),
            done,
        )

    def _run_breed(self, op: TraceOp, shard: int) -> None:
        matron = self.cats[op.params["matron"]]
        sire = self.cats[op.params["sire"]]
        owner = self.users[op.params["owner"]]
        if sire.shard == matron.shard:
            self._breed_here(op, matron, sire, owner)
            return
        # Cross-shard: move the sire to the matron's shard first.
        self.report.cross_shard_ops += 1
        sire_owner = self.users[sire.owner]
        source_shard = sire.shard
        self._outstanding[source_shard] += 1  # Move1 occupies the source window
        self._outstanding[matron.shard] += 1  # Move2 occupies the target window

        def after_move(phases) -> None:
            self._outstanding[source_shard] -= 1
            self._outstanding[matron.shard] -= 1
            assert phases.success, f"move failed: {phases.error}"
            self.report.txs_committed += 2  # Move1 + Move2
            self.report.completions.append((self.cluster.sim.now, 2))
            sire.shard = matron.shard
            self._drain_waiting(source_shard)
            self._breed_here(op, matron, sire, owner)

        self.bridge.move_contract(
            sire_owner,
            sire.address,
            source_id=source_shard + 1,
            target_id=matron.shard + 1,
            on_done=after_move,
        )

    def _breed_here(self, op: TraceOp, matron: _CatState, sire: _CatState, owner) -> None:
        def after_breed(receipt) -> None:
            assert receipt.success, f"breed failed: {receipt.error}"
            self._submit(
                matron.shard,
                owner,
                CallPayload(matron.address, "give_birth"),
                after_birth,
            )

        def after_birth(receipt) -> None:
            assert receipt.success, f"give_birth failed: {receipt.error}"
            self.cats[op.params["child"]] = _CatState(
                address=receipt.return_value,
                shard=matron.shard,
                owner=op.params["owner"],
            )
            self._complete_op(op)

        self._submit(
            matron.shard,
            owner,
            CallPayload(matron.address, "breed_with", (sire.address,)),
            after_breed,
        )
