"""The load-signal plane: one typed interface over every load statistic.

A :class:`LoadSignal` names itself and reports **normalized per-shard
values** (and optionally per-contract values); a :class:`SignalPlane`
composes the attached signals into one :class:`ShardLoadView` snapshot
— the only input the policy layer (:mod:`repro.rebalance.policy`) ever
sees.  Three signals exist: block-fill utilization
(:class:`ShardLoadMonitor`), per-contract demand
(:class:`ContractHotnessSignal`) and gateway admission backpressure
(:class:`GatewayQueueSignal`).

Normalization convention: per-shard values are *capacity fractions*
(≈0 idle, ≈1 saturated) so signals compose by weighted sum with the
fixed :data:`PRESSURE_WEIGHTS`.  Per-contract values are demand rates
(transactions per block, plus a scaled gas term) — they rank contracts
by hotness, so only their relative order matters.

Every signal here derives its values from public, deterministic inputs
(the block stream, the gateway's public queue depths), which is what
keeps rebalancing decisions replayable and decentralized: any client
watching the same blocks computes the same view, hence the same moves.
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
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

from repro.crypto.keys import Address
from repro.errors import ConfigError

if TYPE_CHECKING:
    from repro.chain.chain import Chain

#: pressure weight per signal name; other names weigh 0.  Utilization
#: is the primary load measure (it is already a capacity fraction);
#: queue pressure raises it when admission backs up.
PRESSURE_WEIGHTS: Dict[str, float] = {
    "utilization": 1.0,
    "gateway_queue": 0.5,
}

#: hotness charged per unit of gas, on top of one per transaction
_GAS_SCALE = 1e-6


@runtime_checkable
class LoadSignal(Protocol):
    """One named producer of per-shard (and per-contract) load values."""

    @property
    def name(self) -> str:
        """Stable signal name (keys :data:`PRESSURE_WEIGHTS`)."""
        ...

    def shard_values(self) -> Mapping[int, float]:
        """Current normalized value per shard index (may be empty)."""
        ...

    def contract_values(self) -> Mapping[Address, float]:
        """Current hotness per contract (empty for shard-only signals)."""
        ...


class ShardLoad:
    """One shard's composite load at a sampling instant."""

    __slots__ = ("shard", "signals", "pressure")

    def __init__(self, shard: int, signals: Dict[str, float], pressure: float):
        self.shard = shard
        #: raw per-signal values, by signal name
        self.signals = signals
        #: weighted composite (see :data:`PRESSURE_WEIGHTS`)
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
    """Composes attached :class:`LoadSignal` producers into views.

    ``locate`` maps a contract address to its current shard index (for
    clusters, :meth:`~repro.sharding.cluster.ShardedCluster
    .locate_contract`); without it views carry hotness but no placement,
    so policies cannot rank per-shard candidates.
    """

    def __init__(
        self,
        locate: Optional[Callable[[Address], Optional[int]]] = None,
        read_rates: Optional[Callable[[], Mapping[Address, float]]] = None,
    ):
        self._locate = locate
        #: optional provider of per-contract replica-read rates (e.g.
        #: ``ReplicationManager.read_rates``) — sampled into each view
        #: for the policy's replicate-vs-move arm.
        self._read_rates = read_rates
        self._signals: List[LoadSignal] = []

    def attach(self, signal: LoadSignal) -> LoadSignal:
        """Register a signal (unique name); returns it for chaining."""
        if any(existing.name == signal.name for existing in self._signals):
            raise ConfigError(f"a signal named {signal.name!r} is already attached")
        self._signals.append(signal)
        return signal

    def signal(self, name: str) -> Optional[LoadSignal]:
        """The attached signal with this name, if any."""
        for candidate in self._signals:
            if candidate.name == name:
                return candidate
        return None

    def signal_names(self) -> List[str]:
        """Names of attached signals, in attachment order."""
        return [signal.name for signal in self._signals]

    def sample(self, now: float) -> ShardLoadView:
        """One composed snapshot of every attached signal."""
        per_shard: Dict[int, Dict[str, float]] = {}
        hotness: Dict[Address, float] = {}
        for signal in self._signals:
            for shard, value in signal.shard_values().items():
                per_shard.setdefault(shard, {})[signal.name] = value
            for address, value in signal.contract_values().items():
                hotness[address] = hotness.get(address, 0.0) + value
        shards = {
            shard: ShardLoad(
                shard,
                values,
                sum(PRESSURE_WEIGHTS.get(name, 0.0) * v for name, v in values.items()),
            )
            for shard, values in per_shard.items()
        }
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


class _ShardOnlySignal:
    """Base for signals with no per-contract component."""

    def contract_values(self) -> Mapping[Address, float]:
        """Shard-level signals carry no per-contract attribution."""
        return {}


class ShardLoadMonitor(_ShardOnlySignal):
    """Sliding-window block-fill utilization per shard.

    Computed purely from the public block stream (transactions per
    block vs. the chain's capacity), so *any* client reaches the same
    view without coordination — that is what makes Move-based load
    balancing decentralized (paper §IV-B).  ``shard_values`` reports
    the windowed fill fraction per shard index.
    """

    name = "utilization"

    def __init__(self, shards: Sequence["Chain"], window_blocks: int = 10):
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


def _tx_contract(payload, receipt) -> Optional[Address]:
    """The contract a transaction exercises, or None (plain transfers).

    Deliberately duck-typed on payload attribute names so the signal
    needs no import of every payload class: calls carry ``target``,
    Move1 carries ``contract``, Move2 carries ``bundle.contract`` and
    deploys surface the address through the receipt's return value.
    """
    target = getattr(payload, "target", None)
    if isinstance(target, Address):
        return target
    contract = getattr(payload, "contract", None)
    if isinstance(contract, Address):
        return contract
    bundle = getattr(payload, "bundle", None)
    if bundle is not None and isinstance(getattr(bundle, "contract", None), Address):
        return bundle.contract
    if receipt is not None and receipt.success:
        value = receipt.return_value
        if isinstance(value, Address):
            return value
        if type(value) is tuple and value and isinstance(value[0], Address):
            return value[0]
    return None


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

    name = "hotness"

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
                address = _tx_contract(tx.payload, receipt)
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

    def shard_values(self) -> Mapping[int, float]:
        """Empty — hotness is a ranking signal, not shard pressure."""
        return {}

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

    def tx_rate(self, address: Address) -> float:
        """Windowed transactions/block for one contract (0.0 unknown)."""
        total = 0.0
        for window in self._windows.values():
            if not window:
                continue
            total += sum(fills.get(address, (0, 0))[0] for fills in window) / len(
                window
            )
        return total


class GatewayQueueSignal(_ShardOnlySignal):
    """Admission backpressure from a gateway's bounded queues.

    Reports each served chain's queued+parked depth as a fraction of the
    configured bound — 1.0 means the front door is shedding.  Values
    come from the gateway's public introspection surface
    (:meth:`~repro.gateway.gateway.Gateway.queue_depth` and its
    limits), not its internals.
    """

    name = "gateway_queue"

    def __init__(self, gateway):
        self.gateway = gateway

    def shard_values(self) -> Mapping[int, float]:
        """Queue depth per shard as a fraction of the admission bound."""
        limits = self.gateway.limits
        bound = limits.max_queue_depth + limits.max_blocked
        values: Dict[int, float] = {}
        for chain_id in self.gateway.node.chains:
            depth = self.gateway.queue_depth(chain_id)
            # shard index = chain id - 1, the cluster convention
            values[chain_id - 1] = depth / bound if bound > 0 else 0.0
        return values
