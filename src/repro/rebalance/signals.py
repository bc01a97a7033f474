"""The load-signal plane: one typed interface over scattered statistics.

Before this module, every consumer that wanted to know "how loaded is
shard *i*" had to reach into a different subsystem with a different
shape: :class:`~repro.sharding.balancer.ShardLoadMonitor` exposed
``utilization(index)``, the telemetry registry held raw counters, and
the gateway had queue-depth gauges.  The :class:`LoadSignal` protocol
unifies them: a signal names itself and reports **normalized per-shard
values** (and optionally per-contract values), and a
:class:`SignalPlane` composes any set of signals into one
:class:`ShardLoadView` snapshot — the only input the policy layer
(:mod:`repro.rebalance.policy`) ever sees.

Normalization convention: per-shard values are *capacity fractions*
(≈0 idle, ≈1 saturated) so signals compose by weighted sum; the default
weights are :data:`DEFAULT_WEIGHTS`.  Per-contract values are demand
rates (transactions per block, plus a scaled gas term) — they rank
contracts by hotness, so only their relative order matters.

Every signal here derives its values from public, deterministic inputs
(the block stream, the shared :class:`~repro.telemetry.metrics
.MetricsRegistry`), which is what keeps rebalancing decisions
replayable: same seed, same blocks, same view, same moves.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.crypto.keys import Address
from repro.errors import ConfigError

#: default pressure weights per signal name; unknown names weigh 0.
#: Utilization is the primary load measure (it is already a capacity
#: fraction); queue pressure raises it when admission backs up.
#: ``tx_rate`` defaults to 0 because it measures the same demand as
#: utilization — it exists for deployments (e.g. a gateway fleet) that
#: have no block-stream monitor attached.
DEFAULT_WEIGHTS: Dict[str, float] = {
    "utilization": 1.0,
    "gateway_queue": 0.5,
    "tx_rate": 0.0,
    "hotness": 0.0,
}


@runtime_checkable
class LoadSignal(Protocol):
    """One named producer of per-shard (and per-contract) load values."""

    @property
    def name(self) -> str:
        """Stable signal name (keys :data:`DEFAULT_WEIGHTS`)."""
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
        #: weighted composite (see :data:`DEFAULT_WEIGHTS`)
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

    def coolest(self, exclude: Tuple[int, ...] = ()) -> Optional[int]:
        """Least-pressured shard index, or None if all excluded."""
        candidates = [s for s in self.shard_ids() if s not in exclude]
        if not candidates:
            return None
        return min(candidates, key=lambda s: (self.shards[s].pressure, s))

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
        weights: Optional[Mapping[str, float]] = None,
        locate: Optional[Callable[[Address], Optional[int]]] = None,
        read_rates: Optional[Callable[[], Mapping[Address, float]]] = None,
    ):
        self.weights: Dict[str, float] = dict(DEFAULT_WEIGHTS)
        if weights:
            self.weights.update(weights)
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
                sum(self.weights.get(name, 0.0) * v for name, v in values.items()),
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
        return {}


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
    contract's hotness as ``txs/block + gas_scale * gas/block``.  It is
    also the registry producer for per-contract accounting: each
    observed transaction increments ``contract_txs_total`` /
    ``contract_gas_total`` counters (labelled by chain and contract) in
    the watched chain's :class:`~repro.telemetry.metrics
    .MetricsRegistry`, so exports and the CLI see per-contract demand
    without any extra instrumentation in the executor's hot path.
    """

    name = "hotness"

    def __init__(self, window_blocks: int = 8, gas_scale: float = 1e-6):
        if window_blocks <= 0:
            raise ConfigError("window_blocks must be positive")
        self.window_blocks = window_blocks
        self.gas_scale = gas_scale
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
                        txs + self.gas_scale * gas
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


class TxRateSignal(_ShardOnlySignal):
    """Per-shard transaction rate read back from the metrics registry.

    Samples each watched chain's ``chain_txs_total`` counters (both
    statuses) on every block and reports the windowed rate as a fraction
    of the chain's capacity (``max_block_txs / block_interval``) — the
    same 0..1 scale as utilization, but derived purely from the shared
    :class:`~repro.telemetry.metrics.MetricsRegistry`, so it works for
    components (like gateway replicas) that never see block bodies.
    """

    name = "tx_rate"

    def __init__(self, window: float = 60.0):
        if window <= 0:
            raise ConfigError("window must be positive")
        self.window = window
        #: shard -> (samples deque of (time, total), capacity tx/s)
        self._series: Dict[int, Tuple[Deque[Tuple[float, float]], float]] = {}

    def watch(self, shard_index: int, chain) -> "TxRateSignal":
        """Start sampling ``chain``'s tx counters on every block."""
        metrics = chain.telemetry.metrics
        chain_id = chain.chain_id
        capacity = chain.params.max_block_txs / chain.params.block_interval
        samples: Deque[Tuple[float, float]] = deque()
        self._series[shard_index] = (samples, capacity)

        def on_block(block, _receipts) -> None:
            total = metrics.value(
                "chain_txs_total", chain=chain_id, status="ok"
            ) + metrics.value("chain_txs_total", chain=chain_id, status="failed")
            samples.append((block.header.timestamp, total))
            horizon = block.header.timestamp - self.window
            while len(samples) > 2 and samples[1][0] <= horizon:
                samples.popleft()

        chain.subscribe(on_block)
        return self

    def shard_values(self) -> Mapping[int, float]:
        """Windowed tx rate per shard as a fraction of chain capacity."""
        values: Dict[int, float] = {}
        for shard, (samples, capacity) in self._series.items():
            if len(samples) < 2 or capacity <= 0:
                values[shard] = 0.0
                continue
            (t0, c0), (t1, c1) = samples[0], samples[-1]
            elapsed = t1 - t0
            values[shard] = ((c1 - c0) / elapsed / capacity) if elapsed > 0 else 0.0
        return values


class GatewayQueueSignal(_ShardOnlySignal):
    """Admission backpressure from a gateway's bounded queues.

    Reports each served chain's queued+parked depth as a fraction of the
    configured bound — 1.0 means the front door is shedding.  Values
    come from the gateway's public introspection surface
    (:meth:`~repro.gateway.gateway.Gateway.queue_depth` and its
    limits), not its internals.
    """

    name = "gateway_queue"

    def __init__(self, gateway, chain_to_shard: Optional[Mapping[int, int]] = None):
        self.gateway = gateway
        #: chain id -> shard index (default: chain_id - 1, the cluster
        #: convention)
        self._chain_to_shard = dict(chain_to_shard) if chain_to_shard else None

    def shard_values(self) -> Mapping[int, float]:
        """Queue depth per shard as a fraction of the admission bound."""
        limits = self.gateway.limits
        bound = limits.max_queue_depth + limits.max_blocked
        values: Dict[int, float] = {}
        for chain_id in self.gateway.node.chains:
            if self._chain_to_shard is not None:
                shard = self._chain_to_shard.get(chain_id)
                if shard is None:
                    continue
            else:
                shard = chain_id - 1
            depth = self.gateway.queue_depth(chain_id)
            values[shard] = depth / bound if bound > 0 else 0.0
        return values
