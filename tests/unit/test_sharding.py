"""Unit tests for hash partitioning and the sharded cluster."""

from collections import Counter

import pytest

from repro.crypto.keys import KeyPair
from repro.sharding.cluster import ShardedCluster
from repro.sharding.partition import shard_of, shard_of_int


def test_shard_of_is_deterministic():
    addr = KeyPair.from_name("x").address
    assert shard_of(addr, 4) == shard_of(addr, 4)


def test_shard_of_in_range_and_balanced():
    counts = Counter(
        shard_of(KeyPair.from_name(f"user-{i}").address, 8) for i in range(800)
    )
    assert set(counts) <= set(range(8))
    # Hash partitioning "ensures a good balance among shards".
    assert min(counts.values()) > 60
    assert max(counts.values()) < 140


def test_shard_of_int_balanced():
    counts = Counter(shard_of_int(i, 4) for i in range(400))
    assert set(counts) == set(range(4))
    assert min(counts.values()) > 60


def test_invalid_shard_count():
    addr = KeyPair.from_name("x").address
    with pytest.raises(ValueError):
        shard_of(addr, 0)
    with pytest.raises(ValueError):
        shard_of_int(1, -1)


def test_cluster_builds_n_shards():
    cluster = ShardedCluster(num_shards=4, seed=1)
    assert len(cluster.shards) == 4
    assert len(cluster.engines) == 4
    ids = [shard.chain_id for shard in cluster.shards]
    assert ids == [1, 2, 3, 4]


def test_cluster_shards_observe_each_other():
    cluster = ShardedCluster(num_shards=3, seed=1)
    for shard in cluster.shards:
        for other in cluster.shards:
            if shard is other:
                continue
            assert shard.light_client.store_for(other.chain_id) is not None


def test_cluster_produces_blocks_everywhere():
    cluster = ShardedCluster(num_shards=2, seed=1)
    cluster.start()
    cluster.run(until=30.0)
    assert all(shard.height >= 4 for shard in cluster.shards)
    # Headers flowed to peers.
    a, b = cluster.shards
    assert a.light_client.store_for(b.chain_id).head_height >= 4


def test_cluster_submit_reaches_shard():
    from repro.chain.tx import TransferPayload, sign_transaction

    cluster = ShardedCluster(num_shards=2, seed=1)
    alice, bob = KeyPair.from_name("a"), KeyPair.from_name("b")
    cluster.fund_all({alice.address: 100})
    cluster.start()
    tx = sign_transaction(alice, TransferPayload(to=bob.address, amount=5))
    heard = []
    cluster.submit(1, tx, heard.append)
    cluster.run(until=20.0)
    assert heard == [cluster.shard(1).receipts[tx.tx_id]]
    assert heard[0].success
    assert cluster.shard(1).balance_of(bob.address) == 5
    assert cluster.shard(0).balance_of(bob.address) == 0


def test_locate_contract_across_shards():
    from repro.chain.tx import DeployPayload, sign_transaction
    from tests.helpers import StoreContract

    cluster = ShardedCluster(num_shards=2, seed=1)
    alice = KeyPair.from_name("a")
    cluster.start()
    tx = sign_transaction(alice, DeployPayload(code_hash=StoreContract.CODE_HASH))
    heard = []
    cluster.submit(1, tx, heard.append)
    cluster.run(until=20.0)
    addr = heard[0].return_value
    assert cluster.locate_contract(addr) == 1
    missing = KeyPair.from_name("nothing").address
    assert cluster.locate_contract(missing) is None
