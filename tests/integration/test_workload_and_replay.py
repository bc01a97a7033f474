"""Integration tests for the experiment harnesses (scaled-down).

These exercise the exact code paths the Fig. 5/6/7 benchmarks run, with
small populations so the suite stays fast.
"""

import pytest

from repro.sharding.cluster import ShardedCluster
from repro.traces.cryptokitties import TraceConfig, generate_trace
from repro.traces.replay import KittiesReplayer
from repro.workload.clients import ScoinWorkload


@pytest.fixture(scope="module")
def scoin_report():
    cluster = ShardedCluster(num_shards=2, seed=11)
    workload = ScoinWorkload(cluster, clients_per_shard=12, cross_rate=0.2, seed=3)
    return workload.run(duration=400.0, warmup=40.0)


def test_scoin_workload_completes_ops(scoin_report):
    assert scoin_report.ops_completed > 100
    assert scoin_report.failures == 0  # oracle mode never conflicts


def test_scoin_workload_cross_rate_near_configured(scoin_report):
    assert abs(scoin_report.observed_cross_rate - 0.2) < 0.08


def test_scoin_latency_split(scoin_report):
    single = scoin_report.latency.mean("single-shard")
    cross = scoin_report.latency.mean("cross-shard")
    # Single-shard ~ one block; cross-shard ~ five blocks (Section VII-B).
    assert 4.0 < single < 10.0
    assert 20.0 < cross < 45.0
    assert cross > 3 * single


def test_scoin_single_shard_cluster_has_no_cross_ops():
    cluster = ShardedCluster(num_shards=1, seed=12)
    workload = ScoinWorkload(cluster, clients_per_shard=10, cross_rate=0.3, seed=4)
    report = workload.run(duration=150.0)
    assert report.cross_shard_ops == 0
    assert report.ops_completed > 50


def test_scoin_retry_mode_reports_retries():
    # The paper's operating point: 10 % cross-shard keeps accounts
    # available often enough that most operations succeed, while
    # conflicts still occur and are retried (Section VII-B.1).
    cluster = ShardedCluster(num_shards=2, seed=13)
    workload = ScoinWorkload(
        cluster, clients_per_shard=12, cross_rate=0.1, retry_mode=True, seed=5
    )
    report = workload.run(duration=800.0, warmup=40.0)
    assert report.ops_completed > 40
    hist = report.retry_histogram()
    assert hist.get(0, 0) > 0
    # Conflicts exist and some ops retried (Section VII-B.1).
    assert report.failures > 0
    assert sum(count for retries, count in hist.items() if retries >= 1) > 0


@pytest.fixture(scope="module")
def replay_report():
    trace = generate_trace(TraceConfig(n_ops=500, n_promo=120, n_users=60, seed=21))
    cluster = ShardedCluster(num_shards=2, seed=14, max_block_txs=130)
    replayer = KittiesReplayer(cluster, trace=trace, outstanding_limit=100)
    return replayer.run(max_time=30_000)


def test_replay_drains_the_dag(replay_report):
    assert replay_report.finished_at is not None
    assert replay_report.ops_completed == replay_report.trace_ops


def test_replay_has_no_failed_txs(replay_report):
    # "every transaction from the original contract must succeed in our
    # implementation" (Section VII-A).
    assert replay_report.failed_txs == 0


def test_replay_counts_cross_shard_breeds(replay_report):
    assert replay_report.cross_shard_ops > 0
    assert 0.0 < replay_report.cross_rate < 0.35


def test_replay_throughput_series_nonzero(replay_report):
    series = replay_report.throughput_series(bucket=20.0)
    assert any(rate > 0 for _t, rate in series)


def test_replay_single_shard_never_cross():
    trace = generate_trace(TraceConfig(n_ops=200, n_promo=50, n_users=30, seed=22))
    cluster = ShardedCluster(num_shards=1, seed=15)
    replayer = KittiesReplayer(cluster, trace=trace, outstanding_limit=100)
    report = replayer.run(max_time=30_000)
    assert report.finished_at is not None
    assert report.cross_shard_ops == 0
    assert report.failed_txs == 0
