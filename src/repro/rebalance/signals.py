"""The load-signal plane: two public load inputs, one snapshot.

A :class:`SignalPlane` composes two inputs into one
:class:`ShardLoadView` snapshot — the only input the policy layer
(:mod:`repro.rebalance.policy`) ever sees: block-fill utilization per
shard (:class:`ShardLoadMonitor`) and per-contract demand
(:class:`ContractHotnessSignal`).

Normalization convention: per-shard values are *capacity fractions*
(≈0 idle, ≈1 saturated), so a shard's pressure is
:data:`UTILIZATION_WEIGHT` × utilization.  Per-contract values are
demand rates (transactions per block, plus a scaled gas term) — they
rank contracts by hotness, so only their relative order matters.

Both inputs derive their values from public, deterministic data (the
block stream), which is what keeps rebalancing decisions replayable and
decentralized: any client watching the same blocks computes the same
view, hence the same moves.
"""

from __future__ import annotations

from collections import deque
from typing import (
    TYPE_CHECKING,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.chain.tx import named_contract
from repro.crypto.keys import Address
from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.chain.chain import Chain

#: pressure per unit of utilization — the load measure (it is already
#: a capacity fraction)
UTILIZATION_WEIGHT = 1.0

#: hotness charged per unit of gas, on top of one per transaction
_GAS_SCALE = 1e-6


class ShardLoad:
    """One shard's composite load at a sampling instant."""

    __slots__ = ("shard", "pressure")

    def __init__(self, shard: int, pressure: float):
        self.shard = shard
        #: weighted composite (see :data:`UTILIZATION_WEIGHT`)
        self.pressure = pressure

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ShardLoad(shard={self.shard}, pressure={self.pressure:.3f})"


class ShardLoadView:
    """A composed snapshot of every shard's load — what policies consume.

    Everything is plain data: tests build views directly, and the policy
    layer never touches a subsystem object.
    """

    def __init__(
        self,
        at: float,
        shards: Dict[int, ShardLoad],
        contract_hotness: Optional[Dict[Address, float]] = None,
        contract_shard: Optional[Dict[Address, int]] = None,
        contract_read_rate: Optional[Dict[Address, float]] = None,
    ):
        self.at = at
        self.shards = shards
        self.contract_hotness = contract_hotness or {}
        self.contract_shard = contract_shard or {}
        #: replica-served reads/second per contract (from the replication
        #: manager's windowed counters) — feeds the policy's
        #: replicate-vs-move arm; empty when no read provider is wired.
        self.contract_read_rate = contract_read_rate or {}

    def pressure(self, shard: int) -> float:
        """Composite pressure of a shard (0.0 when unknown)."""
        load = self.shards.get(shard)
        return load.pressure if load is not None else 0.0

    def shard_ids(self) -> List[int]:
        """Known shard indices, ascending (deterministic iteration)."""
        return sorted(self.shards)

    def hottest_contracts(self, shard: int) -> List[Tuple[Address, float]]:
        """Contracts living on ``shard`` ranked by hotness, descending.

        Ties break on the address bytes so the ranking is deterministic
        — a requirement for seed-exact decision replay.
        """
        ranked = [
            (address, score)
            for address, score in self.contract_hotness.items()
            if self.contract_shard.get(address) == shard
        ]
        ranked.sort(key=lambda item: (-item[1], item[0].raw))
        return ranked


class SignalPlane:
    """Composes the two load inputs into views.

    ``utilization`` reports per-shard capacity fractions
    (``shard_values()``); ``hotness`` reports
    per-contract demand (``contract_values()``).  ``locate`` maps a
    contract address to its current shard index (for clusters,
    :meth:`~repro.sharding.cluster.ShardedCluster.locate_contract`);
    without it views carry hotness but no placement, so policies cannot
    rank per-shard candidates.  ``read_rates`` optionally provides
    per-contract replica-read rates (e.g.
    ``ReplicationManager.read_rates``), sampled into each view for the
    policy's replicate-vs-move arm.
    """

    def __init__(
        self,
        utilization: "ShardLoadMonitor",
        hotness: "ContractHotnessSignal",
        locate: Optional[Callable[[Address], Optional[int]]] = None,
        read_rates: Optional[Callable[[], Mapping[Address, float]]] = None,
    ):
        self.utilization = utilization
        self.hotness = hotness
        self._locate = locate
        self._read_rates = read_rates

    def sample(self, now: float) -> ShardLoadView:
        """One composed snapshot of the two inputs."""
        shards = {
            shard: ShardLoad(shard, UTILIZATION_WEIGHT * value)
            for shard, value in self.utilization.shard_values().items()
        }
        hotness = dict(self.hotness.contract_values())
        contract_shard: Dict[Address, int] = {}
        if self._locate is not None:
            for address in hotness:
                location = self._locate(address)
                if location is not None:
                    contract_shard[address] = location
        read_rate: Dict[Address, float] = {}
        if self._read_rates is not None:
            read_rate = dict(self._read_rates())
        return ShardLoadView(
            at=now,
            shards=shards,
            contract_hotness=hotness,
            contract_shard=contract_shard,
            contract_read_rate=read_rate,
        )


class ShardLoadMonitor:
    """Sliding-window block-fill utilization per shard.

    Computed purely from the public block stream (transactions per
    block vs. the chain's capacity), so *any* client reaches the same
    view without coordination — that is what makes Move-based load
    balancing decentralized (paper §IV-B).  ``shard_values`` reports
    the windowed fill fraction per shard index.
    """

    def __init__(self, shards: Sequence["Chain"], window_blocks: int = 10):
        if window_blocks <= 0:
            raise ConfigError("window_blocks must be positive")
        self.shards: List["Chain"] = list(shards)
        self._fills: List[Deque[int]] = []
        for shard in self.shards:
            fills: Deque[int] = deque(maxlen=window_blocks)
            self._fills.append(fills)
            shard.subscribe(
                lambda block, _receipts, fills=fills: fills.append(
                    len(block.transactions)
                )
            )

    def utilization(self, shard_index: int) -> float:
        """Average block fill over the window, as a fraction of capacity."""
        fills = self._fills[shard_index]
        if not fills:
            return 0.0
        capacity = self.shards[shard_index].params.max_block_txs
        return sum(fills) / (len(fills) * capacity)

    def utilizations(self) -> List[float]:
        """Utilization of every shard, by index."""
        return [self.utilization(i) for i in range(len(self.shards))]

    def shard_values(self) -> Dict[int, float]:
        """Windowed utilization per shard index (the signal view)."""
        return dict(enumerate(self.utilizations()))


class ContractHotnessSignal:
    """Per-contract demand from the public block stream, windowed.

    For every watched shard the signal keeps a sliding window of
    per-block ``contract -> (txs, gas)`` maps and reports each
    contract's hotness as ``txs/block + 1e-6 * gas/block``.  It is
    also the registry producer for per-contract accounting: each
    observed transaction increments ``contract_txs_total`` /
    ``contract_gas_total`` counters (labelled by chain and contract) in
    the watched chain's :class:`~repro.telemetry.metrics
    .MetricsRegistry`, so exports and the CLI see per-contract demand
    without any extra instrumentation in the executor's hot path.
    """

    def __init__(self, window_blocks: int = 8):
        if window_blocks <= 0:
            raise ConfigError("window_blocks must be positive")
        self.window_blocks = window_blocks
        #: shard -> deque of per-block {contract: (txs, gas)}
        self._windows: Dict[int, Deque[Dict[Address, Tuple[int, int]]]] = {}
        self._counters: Dict[Tuple[int, Address], Tuple] = {}

    def watch(self, shard_index: int, chain) -> "ContractHotnessSignal":
        """Start deriving hotness from ``chain``'s block stream."""
        window: Deque[Dict[Address, Tuple[int, int]]] = deque(
            maxlen=self.window_blocks
        )
        self._windows[shard_index] = window
        metrics = chain.telemetry.metrics
        chain_id = chain.chain_id

        def on_block(block, receipts) -> None:
            fills: Dict[Address, Tuple[int, int]] = {}
            for tx, receipt in zip(block.transactions, receipts):
                address = named_contract(tx.payload, receipt)
                if address is None:
                    continue
                txs, gas = fills.get(address, (0, 0))
                fills[address] = (txs + 1, gas + receipt.gas_used)
                key = (chain_id, address)
                counters = self._counters.get(key)
                if counters is None:
                    counters = (
                        metrics.counter(
                            "contract_txs_total", chain=chain_id, contract=address.hex
                        ),
                        metrics.counter(
                            "contract_gas_total", chain=chain_id, contract=address.hex
                        ),
                    )
                    self._counters[key] = counters
                counters[0].inc()
                counters[1].inc(receipt.gas_used)
            window.append(fills)

        chain.subscribe(on_block)
        return self

    def contract_values(self) -> Mapping[Address, float]:
        """Windowed hotness per contract across all watched shards."""
        merged: Dict[Address, float] = {}
        for window in self._windows.values():
            if not window:
                continue
            span = len(window)
            for fills in window:
                for address, (txs, gas) in fills.items():
                    merged[address] = merged.get(address, 0.0) + (
                        txs + _GAS_SCALE * gas
                    ) / span
        return merged
