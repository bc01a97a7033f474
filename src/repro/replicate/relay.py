"""The replication relay: one source→target sync pump.

A :class:`ReplicationRelay` keeps every mirror of one (source chain,
target chain) pair within the staleness bound.  It is *event-driven*:
the target chain invokes the relay whenever its light client ingests a
source-chain header (``Chain.subscribe_headers`` fires after the store
update, so the relay always sees the new head), and the relay then
tries to advance each mirror to the newest provable height::

    state_height = target_store.head − p − state_root_lag

For each mirror the relay (1) checks the source record's *live* ``L_c``
— a contract that left the source (Move1 landed) tombstones its mirrors
immediately, making them unavailable rather than stale mid-move; (2)
checks that the header the last update was verified against is still
canonical — if a reorg orphaned it the mirror **halts**
and its replicated storage is wiped from the target state, so orphaned
data can never be served, not even through a raw ``chain.view``; (3)
asks the source for a delta :class:`ReplicaUpdate` over the storage the
target's mirror record serves (a full one when there is no such record),
verifies it against the target's own light client, and installs the
leaf and the storage tree the verifier built via
``WorldState.apply_mirror`` between blocks.

A verification failure is never absorbed silently: ``VS`` misses (header
not yet confirmed, or reorged away) leave the mirror at its last good
state — or halted, per (2) — while integrity mismatches (a proof that
does not reproduce the claimed root) halt the mirror outright.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.chain.block import BlockHeader
from repro.chain.chain import Chain
from repro.crypto.keys import Address
from repro.errors import ProofError, StateError, UnknownRootError
from repro.replicate.mirror import HALTED, LIVE, TOMBSTONED, Mirror
from repro.telemetry import Telemetry


class ReplicationRelay:
    """Synchronizes the read-only mirrors of one chain pair."""

    def __init__(
        self,
        source: Chain,
        target: Chain,
        telemetry: Optional[Telemetry] = None,
    ):
        self.source = source
        self.target = target
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self.mirrors: Dict[Address, Mirror] = {}
        self._started = False
        #: plain lifetime counters (assertable without a metrics registry)
        self.updates = 0
        self.halts = 0
        self.tombstones = 0
        metrics = self.telemetry.metrics
        labels = {"source": source.chain_id, "target": target.chain_id}
        self._m_updates = metrics.counter("replicate_updates_total", **labels)
        self._m_bytes = metrics.histogram("replicate_update_bytes", **labels)
        self._m_full = metrics.counter("replicate_full_syncs_total", **labels)
        self._m_halts = metrics.counter("replicate_halts_total", **labels)
        self._m_tombstones = metrics.counter("replicate_tombstones_total", **labels)
        self._m_staleness = metrics.histogram(
            "replicate_staleness_blocks", **labels
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Subscribe to the target's header stream (idempotent)."""
        if self._started:
            return
        self._started = True
        self.target.subscribe_headers(self._on_header)
        self.sync_all()

    def stop(self) -> None:
        """Unsubscribe from the target's header stream (idempotent)."""
        if not self._started:
            return
        self._started = False
        self.target.unsubscribe_headers(self._on_header)

    def _on_header(self, header: BlockHeader) -> None:
        if header.chain_id == self.source.chain_id:
            self.sync_all()

    # ------------------------------------------------------------------
    # Mirror set
    # ------------------------------------------------------------------

    def add_contract(self, contract: Address) -> Mirror:
        """Start mirroring ``contract`` on the target (idempotent).

        The source begins capturing per-block deltas; the mirror stays
        ``SYNCING`` (unavailable) until the first verified update lands.
        """
        mirror = self.mirrors.get(contract)
        if mirror is not None:
            return mirror
        self.source.enable_replication(contract)
        bound = (
            self.source.params.confirmation_depth
            + self.source.params.state_root_lag
        )
        mirror = Mirror(
            contract=contract,
            source_chain=self.source.chain_id,
            target_chain=self.target.chain_id,
            staleness_bound=bound,
        )
        self.mirrors[contract] = mirror
        self.sync_one(mirror)
        return mirror

    def remove_contract(self, contract: Address) -> None:
        """Stop mirroring and wipe the replica's storage (no-op if
        absent)."""
        mirror = self.mirrors.pop(contract, None)
        if mirror is None:
            return
        self.target.state.drop_mirror(contract)
        mirror.tombstone("dropped")

    # ------------------------------------------------------------------
    # Sync
    # ------------------------------------------------------------------

    def sync_all(self) -> None:
        """Advance every mirror (runs on each ingested source header)."""
        for mirror in self.mirrors.values():
            self.sync_one(mirror)

    def sync_one(self, mirror: Mirror) -> None:
        """Advance one mirror toward the newest provable source state."""
        if mirror.status == TOMBSTONED:
            return
        store = self.target.light_client.store_for(self.source.chain_id)
        if store is None:
            return

        # (1) A contract that left the source makes its mirrors
        # unavailable *immediately* — a reader must get a typed error,
        # never state that is about to be superseded on another chain.
        location = self.source.location_of(mirror.contract)
        if location is not None and location != self.source.chain_id:
            self._tombstone(mirror, f"source moved to chain {location}", location)
            return

        # (2) Reorg safety: the proof we applied must still sit on the
        # canonical branch of the source as this target sees it.
        if mirror.applied_header is not None and not store.is_canonical(
            mirror.applied_header
        ):
            self._halt(mirror, "applied header reorged away")
            # fall through: a verified update on the new branch revives it

        desired = store.head_height - store.confirmation_depth
        desired -= self.source.params.state_root_lag
        if desired < 0:
            return
        if mirror.status == LIVE and desired <= mirror.synced_height:
            return

        tracer = self.telemetry.tracer
        span = tracer.start_trace(
            "replicate.sync",
            contract=str(mirror.contract),
            source_chain=self.source.chain_id,
            target_chain=self.target.chain_id,
            state_height=desired,
        )
        ok = self._advance(mirror, store, desired)
        span.end(success=ok)

    def _advance(self, mirror: Mirror, store, desired: int) -> bool:
        state = self.target.state
        # The delta base is what readers are served; without a mirror
        # record to apply it to, only a full update will do.
        synced = mirror.synced_height >= 0 and state.is_mirror(mirror.contract)
        since = mirror.synced_height if synced else None
        try:
            update = self.source.build_replica_update(
                mirror.contract, since=since, upto=desired
            )
        except ProofError:
            # The requested height is not servable (proof pruned, log
            # younger than the height) — wait for the next header.
            return False
        base = None if update.is_full else state.contract(mirror.contract).storage
        try:
            leaf, tree = update.verify(
                self.target.light_client,
                self.source.params.tree_factory,
                base_image=base,
            )
        except UnknownRootError:
            # VS failed: not yet p-confirmed here, or the root was
            # reorged away.  Keep the last good (or halted) state.
            return False
        except ProofError as exc:
            self._halt(mirror, f"update failed verification: {exc}")
            return False

        if leaf.location != self.source.chain_id:
            # The *proven* state says the contract moved — authoritative
            # within the staleness bound even if the live check raced.
            self._tombstone(
                mirror, f"proven state moved to chain {leaf.location}", leaf.location
            )
            return False

        record = state.contract(mirror.contract)
        if (
            record is not None
            and not state.is_mirror(mirror.contract)
            and record.location == self.target.chain_id
        ):
            # The contract re-homed *onto* this chain (Move2 landed
            # here): readers use the active copy, the mirror retires.
            mirror.tombstone("contract is active on the target chain")
            self.tombstones += 1
            self._m_tombstones.inc()
            return False

        try:
            state.apply_mirror(mirror.contract, leaf, update.code, tree)
        except StateError as exc:
            self._halt(mirror, f"apply failed: {exc}")
            return False
        header = store.header_at(update.proof_height)
        mirror.mark_live(desired, header, full=update.is_full)
        self.updates += 1
        self._m_updates.inc()
        self._m_bytes.observe(update.size_bytes())
        if update.is_full:
            self._m_full.inc()
        self._m_staleness.observe(mirror.staleness(self.source.height))
        return True

    # ------------------------------------------------------------------

    def _halt(self, mirror: Mirror, reason: str) -> None:
        if mirror.status == HALTED:
            return
        self.target.state.drop_mirror(mirror.contract)
        mirror.halt(reason)
        # Everything verified so far sat on the orphaned branch: forget
        # it, so recovery is a full resync on the new canonical branch.
        mirror.synced_height = -1
        mirror.applied_header = None
        self.halts += 1
        self._m_halts.inc()

    def _tombstone(
        self, mirror: Mirror, reason: str, moved_to: Optional[int]
    ) -> None:
        if mirror.status == TOMBSTONED:
            return
        self.target.state.drop_mirror(mirror.contract)
        mirror.tombstone(reason, moved_to)
        self.tombstones += 1
        self._m_tombstones.inc()
