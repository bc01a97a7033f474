"""The node as a deployment assembler: the ``"consensus"`` driver, and
the lifecycle of the loops a node hosts.

A node over one Burrow and one Ethereum chain is the paper's §VIII
deployment: each chain runs its flavour's engine, and each peer
observes the other through the one linked header store.
"""

import pytest

from repro.chain.block import BlockHeader
from repro.chain.params import burrow_params, ethereum_params
from repro.consensus.pow import PowEngine
from repro.consensus.tendermint import TendermintEngine
from repro.errors import ConfigError, StateError
from repro.gateway.gateway import Gateway
from repro.health.monitor import HealthMonitor
from repro.net.sim import Simulator
from repro.node import Node
from repro.rebalance import Rebalancer, SignalPlane


def make_pair(**burrow_overrides):
    return Node(
        [burrow_params(1, **burrow_overrides), ethereum_params(2)],
        seed=3,
        driver="consensus",
    )


def test_each_chain_runs_its_flavours_engine():
    node = make_pair(validator_count=4)
    tendermint, pow_engine = node.engines
    assert type(tendermint) is TendermintEngine
    assert type(pow_engine) is PowEngine
    assert tendermint.chain is node.chain(1)
    assert pow_engine.chain is node.chain(2)
    # One validator (or miner) per params.validator_count.
    assert len(tendermint.validators) == 4
    assert len(pow_engine.miners) == 10


def test_both_chains_produce_blocks():
    node = make_pair()
    node.start()
    node.run_for(120.0)
    assert node.chain(1).height >= 10  # 5 s Tendermint heights
    assert node.chain(2).height >= 2  # 15 s mean PoW interval
    assert node.chain(1).height > node.chain(2).height


def test_both_observers_refuse_a_detached_header():
    node = make_pair()
    node.start()
    node.run_for(120.0)
    # Headers flow both ways, PoW source and BFT source alike.
    assert node.chain(1).light_client.store_for(2).head_height == node.chain(2).height
    assert node.chain(2).light_client.store_for(1).head_height == node.chain(1).height
    for observer, source in ((node.chain(1), node.chain(2)), (node.chain(2), node.chain(1))):
        store = observer.light_client.store_for(source.chain_id)
        head = source.head.header
        detached = BlockHeader(
            chain_id=source.chain_id,
            height=head.height + 1,
            parent_hash=b"\x07" * 32,
            state_root=b"\x01" * 32,
            txs_root=head.txs_root,
            timestamp=head.timestamp + 1.0,
            proposer="forger",
        )
        with pytest.raises(StateError, match="detached"):
            observer.ingest_header(detached)
        assert store.head_height == source.height


def test_restart_does_not_double_block_production():
    # 1 s blocks, so a window holds ~300 PoW finds and mining variance
    # stays far below the factor of two a second production loop adds.
    fast = dict(block_interval=1.0, validator_count=4)
    node = Node(
        [burrow_params(1, **fast), ethereum_params(2, **fast)],
        seed=3,
        driver="consensus",
    )
    node.start()
    node.run_for(300.0)
    first = {cid: chain.height for cid, chain in node.chains.items()}
    node.stop()
    node.start()
    node.run_for(300.0)
    for cid, chain in node.chains.items():
        second = chain.height - first[cid]
        assert 0.75 * first[cid] < second < 1.25 * first[cid], (cid, first[cid], second)


def test_unknown_driver_names_the_allowed_ones():
    for driver in ("tendermint", "pow"):
        with pytest.raises(ConfigError, match=r"\('timer', 'consensus'\)"):
            Node(burrow_params(1), driver=driver)


# ----------------------------------------------------------------------
# Hosted loops: a stopped loop leaves no live event
# ----------------------------------------------------------------------


class _NoLoad:
    def shard_values(self):
        return {}

    def contract_values(self):
        return {}


def _timer_node():
    node = Node(burrow_params(1))
    return node.sim, node


def _gateway():
    node = Node(burrow_params(1))
    return node.sim, Gateway(node)


def _rebalancer():
    sim = Simulator(seed=1)
    return sim, Rebalancer(sim, SignalPlane(_NoLoad(), _NoLoad()), interval=10.0)


def _health_monitor():
    sim = Simulator(seed=1)
    return sim, HealthMonitor(sim, interval=5.0)


@pytest.mark.parametrize(
    "build",
    [_timer_node, _gateway, _rebalancer, _health_monitor],
    ids=["node", "gateway", "rebalancer", "health_monitor"],
)
def test_a_stopped_loop_leaves_no_live_event(build):
    sim, loop = build()
    loop.start()
    sim.run(until=12.0)
    assert sim.pending()  # the next tick
    loop.stop()
    assert sim.run() == 0


class _Service:
    def __init__(self, name, log):
        self.name, self.log = name, log

    def start(self):
        self.log.append(("start", self.name))

    def stop(self):
        self.log.append(("stop", self.name))


def test_services_start_and_stop_in_a_fixed_order():
    node = Node(burrow_params(1))
    log = []
    node.attach_health(_Service("health", log))
    node.attach_replication(_Service("replication", log))
    node.attach_rebalancer(_Service("rebalancer", log))
    node.start()
    node.stop()
    order = ["rebalancer", "replication", "health"]
    assert log == [("start", n) for n in order] + [("stop", n) for n in order]
