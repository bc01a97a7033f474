"""The node as a deployment assembler: the ``"consensus"`` driver.

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
from repro.node import Node


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
