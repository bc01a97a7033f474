"""Verifiable cross-chain read replicas (SmartSync-style).

The Move protocol's proof machinery — light-client header streams plus
Merkle proofs over committed state — is reused here to *synchronize*
contract state across chains instead of migrating it: a contract on
chain ``B_i`` gets read-only **mirrors** on other chains, each updated
by verified :class:`~repro.replicate.protocol.ReplicaUpdate` bundles
with a staleness bound of ``p + state_root_lag`` source blocks
(``docs/REPLICATION.md``).

Layers: :class:`ReplicationLog` (source-side per-block delta capture),
:class:`ReplicaUpdate` (the verified sync step),
:class:`Mirror` (per-replica status machine),
:class:`ReplicationRelay` (one source→target sync pump),
:class:`ReplicationManager` (node-level placement, nearest-replica read
routing, move re-homing — host it with ``Node.attach_replication``).
"""

from repro.replicate.log import ReplicationLog
from repro.replicate.manager import ReplicationManager
from repro.replicate.mirror import HALTED, LIVE, SYNCING, TOMBSTONED, Mirror
from repro.replicate.protocol import ReplicaUpdate
from repro.replicate.relay import ReplicationRelay

__all__ = [
    "ReplicationLog",
    "ReplicationManager",
    "ReplicationRelay",
    "ReplicaUpdate",
    "Mirror",
    "SYNCING",
    "LIVE",
    "HALTED",
    "TOMBSTONED",
]
