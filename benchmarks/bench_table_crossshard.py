"""Section VII-A's cross-shard transaction rates.

The paper reports that the ScalableKitties replay produced on average
5.86 %, 7.93 % and 7.85 % cross-blockchain transaction rates for 2, 4
and 8 shards respectively — flat-ish in the shard count because the
workload's locality (families breeding together) dominates over the
``1 - 1/s`` of random placement.
"""

from __future__ import annotations

from bench_common import emit, format_table, full_scale, once

from repro.sharding.cluster import ShardedCluster
from repro.traces.cryptokitties import TraceConfig, generate_trace
from repro.traces.replay import KittiesReplayer

PAPER_RATES = {2: 5.86, 4: 7.93, 8: 7.85}


def _trace_config() -> TraceConfig:
    if full_scale():
        return TraceConfig(n_ops=25_000, n_promo=2_000, n_users=900, seed=5)
    return TraceConfig(n_ops=12_000, n_promo=1_500, n_users=650, seed=5)


def _measure():
    trace = generate_trace(_trace_config())
    rates = {}
    for shards in (2, 4, 8):
        cluster = ShardedCluster(num_shards=shards, seed=shards, max_block_txs=130)
        replayer = KittiesReplayer(cluster, trace=list(trace), outstanding_limit=250)
        report = replayer.run(max_time=100_000)
        rates[shards] = report.cross_rate * 100
    return rates


def test_crossshard_rates_match_paper_band(benchmark):
    rates = once(benchmark, _measure)
    rows = [
        [shards, round(rates[shards], 2), PAPER_RATES[shards]]
        for shards in (2, 4, 8)
    ]
    emit(
        "table_crossshard_rates",
        format_table(["# shards", "measured cross-shard %", "paper cross-shard %"], rows),
    )
    # Same band and same flat-ish trend as the paper.
    for shards in (2, 4, 8):
        assert 3.0 < rates[shards] < 14.0
    assert rates[4] > rates[2]
    # 4 -> 8 shards is nearly flat (paper: 7.93 -> 7.85).
    assert rates[8] < rates[4] * 1.35
