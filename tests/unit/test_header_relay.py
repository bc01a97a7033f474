"""Unit tests for header relays (including delayed delivery)."""

import pytest

from repro.chain.chain import Chain
from repro.chain.params import burrow_params
from repro.core.registry import ChainRegistry
from repro.ibc.headers import HeaderRelay, connect_chains
from repro.net.sim import Simulator


def relayed(chain):
    """Headers relayed from ``chain``, read from its metrics registry."""
    return chain.telemetry.metrics.counter(
        "relay_headers_relayed_total", chain=chain.chain_id
    ).value


def make_pair():
    registry = ChainRegistry()
    a = Chain(burrow_params(1), registry)
    b = Chain(burrow_params(2), registry)
    return a, b


def test_instant_relay_backfills_genesis():
    a, b = make_pair()
    HeaderRelay(a, [b])
    store = b.light_client.store_for(a.chain_id)
    assert store is not None
    assert store.head_height == 0  # genesis backfilled
    assert relayed(a) == 1


def test_instant_relay_streams_new_blocks():
    a, b = make_pair()
    HeaderRelay(a, [b])
    a.produce_block(5.0)
    a.produce_block(10.0)
    store = b.light_client.store_for(a.chain_id)
    assert store.head_height == 2
    assert store.header_at(1).timestamp == 5.0


def test_delayed_relay_delivers_after_sim_delay():
    sim = Simulator(seed=1)
    a, b = make_pair()
    HeaderRelay(a, [b], sim=sim, delay=2.0)
    sim.run(until=3.0)  # flush the backfilled genesis delivery
    a.produce_block(5.0)
    store = b.light_client.store_for(a.chain_id)
    assert store.head_height == 0  # not yet delivered
    sim.run(until=10.0)
    assert store.head_height == 1


def test_connect_chains_is_a_full_mesh():
    registry = ChainRegistry()
    chains = [Chain(burrow_params(i), registry) for i in (1, 2, 3)]
    relays = connect_chains(chains)
    assert len(relays) == 3
    for chain in chains:
        for other in chains:
            if chain is other:
                continue
            assert chain.light_client.store_for(other.chain_id) is not None
    # Registry carries everyone's agreed parameters.
    for chain in chains:
        for other in chains:
            assert other.chain_id in chain.registry


def test_relay_counts_headers():
    a, b = make_pair()
    HeaderRelay(a, [b])
    for i in range(1, 4):
        a.produce_block(5.0 * i)
    assert relayed(a) == 4  # genesis + 3
