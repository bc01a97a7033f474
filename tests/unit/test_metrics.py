"""Unit tests for the measurement helpers the figures read: the replay's
throughput series, latency samples, the nearest-rank percentile and the
text renderers."""

import pytest

from benchmarks.bench_common import format_table
from repro.sharding.cluster import ShardedCluster
from repro.telemetry import percentile
from repro.telemetry.exporters import format_series
from repro.traces.cryptokitties import TraceConfig, generate_trace
from repro.traces.replay import KittiesReplayer, ReplayReport
from repro.workload import LatencySampler


def test_throughput_rate_and_total():
    # Every committed transaction of a replay is one completion count,
    # so the series integrates to the total the average rate divides.
    trace = generate_trace(TraceConfig(n_ops=200, n_promo=50, n_users=30, seed=5))
    cluster = ShardedCluster(num_shards=2, seed=5, max_block_txs=130)
    report = KittiesReplayer(cluster, trace=trace).run(max_time=50_000)
    assert report.cross_shard_ops > 0  # some completions count a Move pair
    assert sum(count for _t, count in report.completions) == report.txs_committed
    assert report.avg_throughput() == report.txs_committed / report.finished_at
    series = report.throughput_series(bucket=10.0, end=report.finished_at)
    assert sum(rate * 10.0 for _t, rate in series) == pytest.approx(report.txs_committed)


def test_throughput_series_buckets():
    report = ReplayReport(num_shards=1, trace_ops=0)
    report.completions += [(1.0, 5), (12.0, 10)]
    series = report.throughput_series(bucket=10.0, end=30.0)
    assert series == [(0.0, 0.5), (10.0, 1.0), (20.0, 0.0)]
    # without ``end`` the series stops at the last completion
    assert report.throughput_series(bucket=10.0) == [(0.0, 0.5), (10.0, 1.0)]


def test_throughput_empty_series():
    report = ReplayReport(num_shards=1, trace_ops=0)
    assert report.throughput_series() == []
    assert report.throughput_series(bucket=5.0, end=10.0) == [(0.0, 0.0), (5.0, 0.0)]


def test_latency_sampler_kinds_and_mean():
    ls = LatencySampler()
    ls.add("single", 1.0)
    ls.add("single", 3.0)
    ls.add("cross", 10.0)
    assert set(ls.kinds()) == {"single", "cross"}
    assert ls.mean("single") == 2.0
    assert ls.samples("cross") == (10.0,)
    assert ls.samples("nope") == ()
    assert sorted(ls.all_samples()) == [1.0, 3.0, 10.0]


def test_latency_sampler_rejects_negative():
    with pytest.raises(ValueError):
        LatencySampler().add("x", -1.0)


def test_latency_mean_of_unknown_kind():
    with pytest.raises(ValueError):
        LatencySampler().mean("nope")


def test_percentile():
    samples = list(range(1, 101))
    assert percentile(samples, 0.5) == 51
    assert percentile(samples, 0.0) == 1
    assert percentile(samples, 1.0) == 100
    assert percentile([4.0, 1.0, 3.0, 2.0], 0.5) == 3.0
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


def test_format_table_aligns():
    text = format_table(["a", "bbbb"], [[1, 2.5], [333, 4]])
    lines = text.splitlines()
    assert len(lines) == 4
    assert "333" in lines[3]
    assert "2.50" in lines[2]


def test_format_series_renders_bars():
    text = format_series([(0.0, 1.0), (10.0, 2.0)], y_label="tx/s")
    assert "tx/s" in text
    assert text.count("#") > 0
    assert format_series([]) == "(empty series)"
