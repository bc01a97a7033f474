"""Per-replica bookkeeping: sync position, status, applied proof.

A :class:`Mirror` is the relay's view of one read-only replica on one
target chain.  The replicated *state* itself lives only in the target's
``WorldState``, as a real, locked contract record flagged as a mirror
by ``apply_mirror``: ordinary ``chain.view`` calls serve it, and its
storage is the base the next delta update applies to.  This object
tracks what the sync protocol needs around that record — the source
height it reproduces, the header the proof was checked against (for
reorg detection), and the serving status.

Status machine::

    SYNCING ──verified update──▶ LIVE ◀──newer verified update──┐
       ▲                          │                             │
       │                          ├─ applied header reorged ──▶ HALTED
       │                          │
       └── re-home (new source) ──┴─ source moved away ──▶ TOMBSTONED

Only ``LIVE`` serves reads; every other status answers with the typed
:class:`~repro.errors.ReplicaUnavailable` — a replica fails
*unavailable*, never stale or orphaned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.chain.block import BlockHeader
from repro.crypto.keys import Address

SYNCING = "syncing"
LIVE = "live"
HALTED = "halted"
TOMBSTONED = "tombstoned"


@dataclass
class Mirror:
    """One replica's sync state on one target chain."""

    contract: Address
    source_chain: int
    target_chain: int
    #: configured staleness bound in source blocks (p + state_root_lag)
    staleness_bound: int
    status: str = SYNCING
    #: source block height whose post-state the replica reproduces
    synced_height: int = -1
    #: header the last accepted update's proof was verified against
    applied_header: Optional[BlockHeader] = None
    updates_applied: int = 0
    full_syncs: int = 0
    #: why the mirror is halted/tombstoned (for operators and errors)
    reason: str = ""
    #: where the source said the contract went (tombstones only)
    moved_to: Optional[int] = None

    @property
    def available(self) -> bool:
        return self.status == LIVE

    def staleness(self, source_height: int) -> int:
        """Measured staleness in source blocks at source head
        ``source_height`` (how far behind the committed state a reader
        of this replica observes is)."""
        if self.synced_height < 0:
            return source_height + 1
        return max(0, source_height - self.synced_height)

    def mark_live(self, height: int, header: BlockHeader, full: bool) -> None:
        """Record a verified update: the replica now reproduces the
        source's committed state at ``height`` and may serve reads."""
        self.status = LIVE
        self.synced_height = height
        self.applied_header = header
        self.updates_applied += 1
        if full:
            self.full_syncs += 1
        self.reason = ""
        self.moved_to = None

    def halt(self, reason: str) -> None:
        """Stop serving (reorg/integrity failure); a verified update
        on the canonical branch revives the mirror."""
        self.status = HALTED
        self.reason = reason

    def tombstone(self, reason: str, moved_to: Optional[int] = None) -> None:
        """Retire the mirror (source moved away, became active here,
        or the placement was dropped); forgets the synced height."""
        self.status = TOMBSTONED
        self.reason = reason
        self.moved_to = moved_to
        self.synced_height = -1
        self.applied_header = None
