"""Figure 5: ScalableKitties trace replay throughput vs. shard count.

Left plot — average transactions per second for 1/2/4/8 shards: the
paper reports a nearly linear increase except at eight shards, where
the dependency DAG runs out of ready transactions.

Right plot — aggregated throughput over time for the 8-shard run, with
dashed marks at the moment each shard's outstanding-transaction window
could no longer be kept full ("Limit reached").
"""

from __future__ import annotations

from bench_common import emit, format_table, full_scale, once

from repro.sharding.cluster import ShardedCluster
from repro.telemetry.exporters import format_series
from repro.traces.cryptokitties import TraceConfig, generate_trace
from repro.traces.replay import KittiesReplayer

SHARD_COUNTS = (1, 2, 4, 8)
#: per-shard effective block capacity (the paper's Burrow deployment
#: commits on the order of 130 transactions per 5 s block)
BLOCK_CAPACITY = 130
OUTSTANDING = 250


def _trace_config() -> TraceConfig:
    if full_scale():
        return TraceConfig(n_ops=25_000, n_promo=2_000, n_users=900, seed=5)
    return TraceConfig(n_ops=12_000, n_promo=1_500, n_users=650, seed=5)


def _replay_all():
    trace = generate_trace(_trace_config())
    results = {}
    for shards in SHARD_COUNTS:
        cluster = ShardedCluster(num_shards=shards, seed=shards, max_block_txs=BLOCK_CAPACITY)
        replayer = KittiesReplayer(cluster, trace=list(trace), outstanding_limit=OUTSTANDING)
        results[shards] = replayer.run(max_time=100_000)
    return results


def test_fig5_scalablekitties_throughput(benchmark):
    results = once(benchmark, _replay_all)

    rows = []
    for shards, report in results.items():
        rows.append(
            [
                shards,
                round(report.avg_throughput(), 1),
                round(report.cross_rate * 100, 2),
                round(report.finished_at or 0.0, 0),
                report.txs_committed,
            ]
        )
    left = format_table(
        ["# shards", "txs/s", "cross-shard %", "replay time (s)", "txs"], rows
    )

    eight = results[8]
    series = eight.throughput_series(bucket=30.0, end=eight.finished_at)
    marks = ", ".join(
        f"shard {shard} @ {when:.0f}s"
        for shard, when in sorted(eight.starved_at.items())
    )
    right = (
        format_series(series, x_label="time (s)", y_label="tx/s")
        + "\n\nLimit reached (ready txs < outstanding window):\n  "
        + (marks or "(never)")
    )
    emit("fig5_scalablekitties", left + "\n\n--- 8 shards over time ---\n" + right)

    throughput = {s: r.avg_throughput() for s, r in results.items()}
    # Every replayed transaction must succeed (Section VII-A).
    assert all(r.failed_txs == 0 for r in results.values())
    assert all(r.finished_at is not None for r in results.values())
    # Near-linear at small shard counts...
    assert throughput[2] > 1.4 * throughput[1]
    assert throughput[4] > 1.2 * throughput[2]
    # ...but clearly sub-linear at eight shards (the paper's dip).
    assert throughput[8] < 1.6 * throughput[4]
    # All eight shards eventually starve for ready transactions.
    assert len(eight.starved_at) == 8
    # Cross-shard rates stay in the paper's single-digit band.
    for shards in (2, 4, 8):
        assert 0.03 < results[shards].cross_rate < 0.15
