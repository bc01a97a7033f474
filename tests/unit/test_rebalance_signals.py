"""Signal-layer tests: block-fill utilization, hotness, plane composition."""

import pytest

from repro.chain.tx import CallPayload, TransferPayload, sign_transaction
from repro.crypto.keys import Address, KeyPair
from repro.rebalance.signals import (
    ContractHotnessSignal,
    ShardLoadMonitor,
    SignalPlane,
)
from repro.sharding.cluster import ShardedCluster
from tests.helpers import (
    ALICE,
    ManualClock,
    StoreContract,
    deploy_store,
    produce,
)


def addr(n: int) -> Address:
    return Address(bytes([n]) * 20)


def load_shard(cluster, index, count, clock):
    """Fill one block on a shard with ``count`` plain transfers."""
    sender = KeyPair.from_name("signal-sender")
    cluster.fund_all({sender.address: 1_000_000})
    for _ in range(count):
        cluster.shard(index).submit(
            sign_transaction(sender, TransferPayload(to=addr(9), amount=1))
        )
    cluster.shard(index).produce_block(clock.tick())


# ----------------------------------------------------------------------
# ShardLoadMonitor: block-fill utilization
# ----------------------------------------------------------------------


def test_monitor_reads_utilization_from_blocks():
    cluster = ShardedCluster(num_shards=3, seed=3, max_block_txs=100)
    monitor = ShardLoadMonitor(cluster.shards, window_blocks=5)
    clock = ManualClock()
    for _round in range(5):
        for index, count in enumerate([90, 10, 0]):
            load_shard(cluster, index, count, clock)
    assert monitor.utilization(0) == pytest.approx(0.9)
    assert monitor.utilization(1) == pytest.approx(0.1)
    assert monitor.utilization(2) == 0.0
    assert monitor.shard_values() == {
        0: pytest.approx(0.9),
        1: pytest.approx(0.1),
        2: 0.0,
    }


# ----------------------------------------------------------------------
# Per-contract hotness
# ----------------------------------------------------------------------


def test_hotness_ranks_contracts_and_feeds_metrics():
    cluster = ShardedCluster(num_shards=1, seed=5, max_block_txs=50)
    chain = cluster.shard(0)
    clock = ManualClock()
    hot_store = deploy_store(chain, clock, ALICE)
    cold_store = deploy_store(chain, clock, ALICE)
    signal = ContractHotnessSignal(window_blocks=4)
    signal.watch(0, chain)
    callers = [KeyPair.from_name(f"caller-{i}") for i in range(4)]
    cluster.fund_all({kp.address: 1_000_000 for kp in callers})
    for _round in range(4):
        for i, kp in enumerate(callers):
            chain.submit(
                sign_transaction(kp, CallPayload(hot_store, "put", (i, 1)))
            )
        chain.submit(
            sign_transaction(callers[0], CallPayload(cold_store, "put", (0, 1)))
        )
        produce(chain, clock)
    values = signal.contract_values()
    assert values[hot_store] > values[cold_store] > 0.0
    # The signal doubles as the per-contract metrics producer.
    metrics = chain.telemetry.metrics
    assert metrics.value(
        "contract_txs_total", chain=chain.chain_id, contract=hot_store.hex
    ) == 16
    gas = metrics.value(
        "contract_gas_total", chain=chain.chain_id, contract=hot_store.hex
    )
    assert gas > 0
    # Four calls a block over the four-block window, plus the gas term.
    assert values[hot_store] == pytest.approx((16 + 1e-6 * gas) / 4)


def test_hotness_window_slides():
    cluster = ShardedCluster(num_shards=1, seed=5, max_block_txs=50)
    chain = cluster.shard(0)
    clock = ManualClock()
    store = deploy_store(chain, clock, ALICE)
    signal = ContractHotnessSignal(window_blocks=2)
    signal.watch(0, chain)
    caller = KeyPair.from_name("slider")
    cluster.fund_all({caller.address: 1_000_000})
    chain.submit(sign_transaction(caller, CallPayload(store, "put", (1, 1))))
    produce(chain, clock)
    assert signal.contract_values()[store] > 0.0
    # Two empty blocks push the activity out of the window entirely.
    produce(chain, clock, count=2)
    assert signal.contract_values().get(store, 0.0) == 0.0


# ----------------------------------------------------------------------
# Plane composition
# ----------------------------------------------------------------------


class _Stub:
    """A fixed load input: per-shard and per-contract values."""

    def __init__(self, shard_values=None, contract_values=None):
        self._shard = shard_values or {}
        self._contract = contract_values or {}

    def shard_values(self):
        return self._shard

    def contract_values(self):
        return self._contract


def test_plane_composes_weighted_pressure():
    placement = {addr(1): 0}
    plane = SignalPlane(
        _Stub({0: 0.8, 1: 0.2}),
        _Stub(contract_values={addr(1): 3.0}),
        locate=placement.get,
    )
    view = plane.sample(now=12.0)
    assert view.at == 12.0
    assert view.pressure(0) == 0.8
    assert view.pressure(1) == 0.2
    assert view.pressure(99) == 0.0
    assert view.shard_ids() == [0, 1]
    assert view.contract_hotness == {addr(1): 3.0}
    assert view.hottest_contracts(0) == [(addr(1), 3.0)]
    assert view.hottest_contracts(1) == []


def test_cluster_load_plane_is_fully_wired():
    cluster = ShardedCluster(num_shards=2, seed=3, max_block_txs=10)
    clock = ManualClock()
    plane = cluster.load_plane()
    assert isinstance(plane.utilization, ShardLoadMonitor)
    assert isinstance(plane.hotness, ContractHotnessSignal)
    store = deploy_store(cluster.shard(0), clock, ALICE)
    caller = KeyPair.from_name("plane-caller")
    cluster.fund_all({caller.address: 1_000_000})
    for _round in range(4):
        for key in range(8):
            cluster.shard(0).submit(
                sign_transaction(caller, CallPayload(store, "put", (key, 1)))
            )
        cluster.shard(0).produce_block(clock.tick())
        cluster.shard(1).produce_block(clock.now)
    view = plane.sample(cluster.sim.now)
    assert view.pressure(0) > view.pressure(1)
    assert view.contract_shard[store] == 0
    assert view.hottest_contracts(0)[0][0] == store
