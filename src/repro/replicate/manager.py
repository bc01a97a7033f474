"""The node-level replication manager: placement, routing, re-homing.

One :class:`ReplicationManager` per :class:`~repro.node.Node` owns all
:class:`~repro.replicate.relay.ReplicationRelay` pumps (one per chain
pair that carries at least one mirror), answers read requests with
nearest-replica routing, and keeps mirror placement consistent with
the Move protocol:

* ``replicate(contract, source, targets)`` declares the placement;
  relays sync each mirror and keep it within the staleness bound;
* reads (:meth:`read`) route to the preferred chain's active copy or
  ``LIVE`` replica, with a typed :class:`ReplicaUnavailable` when the
  preferred replica is syncing/halted/tombstoned and fallback is off;
* when a replicated contract **moves** (Move1/Move2 to another served
  chain), its mirrors tombstone immediately (the relay's live ``L_c``
  check) and the manager *re-homes* them: once the contract is active
  on the new chain, fresh mirrors are registered under the new
  source→target relays, fully re-synced from verified proofs.

Per-contract read counters (windowed, on the simulated clock) feed the
rebalancer's replicate-vs-move decision arm — a read-dominated hot
contract is cheaper to replicate than to move.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.locator import active_chain
from repro.crypto.keys import Address
from repro.errors import ReplicaUnavailable, StateError
from repro.replicate.mirror import Mirror
from repro.replicate.relay import ReplicationRelay

#: window (simulated seconds) for the read-rate signal
READ_RATE_WINDOW = 10.0


class ReplicationManager:
    """Owns the relays and the replica read path of one node."""

    def __init__(self, node):
        self.node = node
        self.telemetry = node.telemetry
        self._relays: Dict[Tuple[int, int], ReplicationRelay] = {}
        #: contract -> chain currently treated as its source
        self._sources: Dict[Address, int] = {}
        #: contract -> declared replica placement (target chain ids)
        self._targets: Dict[Address, Set[int]] = {}
        self._started = False
        #: per-contract read timestamps inside the rate window
        self._read_times: Dict[Address, List[float]] = {}
        self.reads_by_contract: Dict[Address, int] = {}
        #: lifetime re-home count (assertable without a metrics registry)
        self.rehomes = 0
        metrics = self.telemetry.metrics
        self._m_mirrors = metrics.gauge("replicate_mirrors")
        self._m_unavailable = metrics.counter("replicate_read_unavailable_total")
        self._m_rehomes = metrics.counter("replicate_rehomes_total")
        self._m_read_counters: Dict[Tuple[int, str], object] = {}

    # ------------------------------------------------------------------
    # Lifecycle (hosted by Node.attach_replication)
    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start every relay and watch blocks for re-homing
        (idempotent)."""
        if self._started:
            return
        self._started = True
        for chain in self.node.chains.values():
            chain.subscribe(self._on_block)
        for relay in self._relays.values():
            relay.start()

    def stop(self) -> None:
        """Stop every relay and the block watcher (idempotent)."""
        if not self._started:
            return
        self._started = False
        for chain in self.node.chains.values():
            chain.unsubscribe(self._on_block)
        for relay in self._relays.values():
            relay.stop()

    def _on_block(self, _block, _receipts) -> None:
        self._retarget()

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------

    def replicate(
        self, contract: Address, source_chain: int, target_chains: Iterable[int]
    ) -> List[Mirror]:
        """Mirror ``contract`` (living on ``source_chain``) onto each of
        ``target_chains``.  Idempotent per target; returns the mirrors."""
        source = self.node.chain(source_chain)
        if source.state.contract(contract) is None:
            raise StateError(f"no contract at {contract} on chain {source_chain}")
        self._sources[contract] = source_chain
        wanted = self._targets.setdefault(contract, set())
        mirrors = []
        for target_id in target_chains:
            if target_id == source_chain:
                raise StateError("a contract cannot mirror onto its own chain")
            self.node.chain(target_id)  # raises UnknownChainError if unserved
            wanted.add(target_id)
            mirrors.append(self._relay(source_chain, target_id).add_contract(contract))
        self._update_mirror_gauge()
        return mirrors

    def drop(self, contract: Address) -> None:
        """Stop replicating ``contract`` everywhere."""
        targets = self._targets.pop(contract, set())
        for (source_id, target_id), relay in self._relays.items():
            if target_id in targets:
                relay.remove_contract(contract)
        self._sources.pop(contract, None)
        self._update_mirror_gauge()

    def _relay(self, source_id: int, target_id: int) -> ReplicationRelay:
        relay = self._relays.get((source_id, target_id))
        if relay is None:
            relay = ReplicationRelay(
                self.node.chain(source_id),
                self.node.chain(target_id),
                telemetry=self.telemetry,
            )
            self._relays[(source_id, target_id)] = relay
            if self._started:
                relay.start()
        return relay

    def mirror(self, contract: Address, chain_id: int) -> Optional[Mirror]:
        """The contract's mirror on ``chain_id`` under its *current*
        source, or None."""
        source_id = self._sources.get(contract)
        if source_id is None:
            return None
        relay = self._relays.get((source_id, chain_id))
        if relay is None:
            return None
        return relay.mirrors.get(contract)

    def mirrors(self, contract: Address) -> Dict[int, Mirror]:
        """All of the contract's mirrors keyed by target chain."""
        source_id = self._sources.get(contract)
        out: Dict[int, Mirror] = {}
        for (src, target_id), relay in self._relays.items():
            if src != source_id:
                continue
            mirror = relay.mirrors.get(contract)
            if mirror is not None:
                out[target_id] = mirror
        return out

    def status(self, contract: Address) -> Dict[int, str]:
        """Per-target serving status (``live``/``syncing``/…)."""
        return {
            chain_id: mirror.status
            for chain_id, mirror in self.mirrors(contract).items()
        }

    def source_of(self, contract: Address) -> Optional[int]:
        """The chain currently feeding the contract's mirrors, if
        replicated."""
        return self._sources.get(contract)

    def _update_mirror_gauge(self) -> None:
        self._m_mirrors.set(
            sum(len(relay.mirrors) for relay in self._relays.values())
        )

    # ------------------------------------------------------------------
    # Read routing
    # ------------------------------------------------------------------

    def read(
        self,
        contract: Address,
        method: str,
        *args,
        prefer_chain: Optional[int] = None,
        fallback: bool = True,
    ):
        """Serve a read from the nearest usable copy.

        Preference order: the active copy on ``prefer_chain``, then a
        ``LIVE`` replica there, then (with ``fallback``) the active
        copy wherever it lives.  A preferred replica that is syncing,
        halted or tombstoned raises :class:`ReplicaUnavailable` when
        fallback is off — a replica fails unavailable, never stale.
        """
        if prefer_chain is not None:
            chain = self.node.chain(prefer_chain)
            record = chain.state.contract(contract)
            if (
                record is not None
                and not chain.state.is_mirror(contract)
                and record.location == chain.chain_id
            ):
                return self._serve(chain, contract, method, args, kind="primary")
            mirror = self.mirror(contract, prefer_chain)
            if mirror is not None and mirror.available:
                return self._serve(chain, contract, method, args, kind="replica")
            self._m_unavailable.inc()
            if not fallback:
                if mirror is None:
                    raise ReplicaUnavailable(
                        f"no replica of {contract} on chain {prefer_chain}"
                    )
                raise ReplicaUnavailable(
                    f"replica of {contract} on chain {prefer_chain} is "
                    f"{mirror.status}"
                    + (f": {mirror.reason}" if mirror.reason else "")
                )
        home = active_chain(self.node.chains.values(), contract)
        if home is None:
            raise ReplicaUnavailable(
                f"no active copy of {contract} on any served chain"
            )
        return self._serve(home, contract, method, args, kind="primary")

    def _serve(self, chain, contract: Address, method: str, args, kind: str):
        key = (chain.chain_id, kind)
        counter = self._m_read_counters.get(key)
        if counter is None:
            counter = self.telemetry.metrics.counter(
                "replicate_reads_total", chain=chain.chain_id, kind=kind
            )
            self._m_read_counters[key] = counter
        counter.inc()
        self._record_read(contract)
        return chain.view(contract, method, *args)

    # ------------------------------------------------------------------
    # Read-rate signal (for the rebalancer's replicate arm)
    # ------------------------------------------------------------------

    def _record_read(self, contract: Address) -> None:
        now = self.node.sim.now
        times = self._read_times.setdefault(contract, [])
        times.append(now)
        self.reads_by_contract[contract] = (
            self.reads_by_contract.get(contract, 0) + 1
        )
        # Compact in place: everything inside the window survives.
        cutoff = now - READ_RATE_WINDOW
        if times and times[0] < cutoff:
            self._read_times[contract] = [t for t in times if t >= cutoff]

    def read_rate(self, contract: Address) -> float:
        """Reads per simulated second over the trailing window."""
        now = self.node.sim.now
        cutoff = now - READ_RATE_WINDOW
        times = self._read_times.get(contract)
        if not times:
            return 0.0
        live = [t for t in times if t >= cutoff]
        self._read_times[contract] = live
        return len(live) / READ_RATE_WINDOW

    def read_rates(self) -> Dict[Address, float]:
        """Windowed read rates for every read contract — the provider
        a :class:`~repro.rebalance.signals.SignalPlane` samples for the
        policy's replicate-vs-move arm."""
        return {
            contract: self.read_rate(contract)
            for contract in list(self._read_times)
        }

    # ------------------------------------------------------------------
    # Re-homing after moves
    # ------------------------------------------------------------------

    def _retarget(self) -> None:
        """Re-home mirrors whose contract completed a move to another
        served chain (runs after every block)."""
        for contract, source_id in list(self._sources.items()):
            source = self.node.chains.get(source_id)
            if source is None:
                continue
            location = source.location_of(contract)
            if location is None or location == source_id:
                continue
            new_chain = self.node.chains.get(location)
            if new_chain is None:
                continue  # moved off this node: mirrors stay tombstoned
            if new_chain.location_of(contract) != location:
                continue  # Move2 not landed yet: mirrors stay unavailable
            self._rehome(contract, location)

    def _rehome(self, contract: Address, new_source: int) -> None:
        old_source = self._sources[contract]
        targets = self._targets.get(contract, set())
        for target_id in set(targets):
            relay = self._relays.get((old_source, target_id))
            if relay is not None:
                relay.remove_contract(contract)
        self._sources[contract] = new_source
        for target_id in sorted(targets):
            if target_id == new_source:
                continue  # the active copy serves this chain directly
            self._relay(new_source, target_id).add_contract(contract)
        self.rehomes += 1
        self._m_rehomes.inc()
        self._update_mirror_gauge()
