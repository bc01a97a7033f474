"""Figure 7: latency CDFs for the SCoin workload, 4 shards, 10 % cross.

Right plot (conflict-free oracle mode): single-shard transactions take
about one block; cross-shard operations take about five blocks (Move1,
two-block proof wait, Move2, final transfer), so roughly 10 % of the
aggregated distribution sits at the cross-shard plateau — and there is
no convoy effect: cross-shard traffic does not delay single-shard
transactions.

Left plot (retry mode, Section VII-B.1): clients pick targets blindly,
conflicting transactions are retried after a random 0–10-block backoff;
the retry count distribution is highly skewed (paper: 66 % of retrying
transactions retry once, ~1 % more than three times).
"""

from __future__ import annotations

from bench_common import emit, format_table, full_scale, once

from repro.sharding.cluster import ShardedCluster
from repro.telemetry import percentile
from repro.workload.clients import ScoinWorkload

SHARDS = 4
CROSS_RATE = 0.10


def _params():
    if full_scale():
        return dict(clients=250, duration=900.0, warmup=100.0)
    return dict(clients=40, duration=500.0, warmup=60.0)


def _run_both_modes():
    params = _params()
    reports = {}
    for retry_mode in (False, True):
        cluster = ShardedCluster(num_shards=SHARDS, seed=200 + retry_mode)
        workload = ScoinWorkload(
            cluster,
            clients_per_shard=params["clients"],
            cross_rate=CROSS_RATE,
            retry_mode=retry_mode,
            seed=9,
        )
        reports[retry_mode] = workload.run(params["duration"], warmup=params["warmup"])
    return reports


def _cdf_table(report) -> str:
    rows = []
    for q in (0.10, 0.25, 0.50, 0.75, 0.90, 0.99):
        row = [f"p{int(q * 100)}"]
        for kind in ("single-shard", "cross-shard"):
            samples = report.latency.samples(kind)
            row.append(round(percentile(samples, q), 1) if samples else "-")
        aggregated = report.latency.all_samples()
        row.append(round(percentile(aggregated, q), 1) if aggregated else "-")
        rows.append(row)
    return format_table(["quantile", "single-shard (s)", "cross-shard (s)", "aggregated (s)"], rows)


def test_fig7_latency_cdfs(benchmark):
    reports = once(benchmark, _run_both_modes)
    oracle, retry = reports[False], reports[True]

    sections = ["--- conflict-free (Fig. 7 right) ---", _cdf_table(oracle)]
    sections += [
        "",
        f"mean single-shard: {oracle.latency.mean('single-shard'):.1f} s "
        f"(paper: ~7 s); mean cross-shard: {oracle.latency.mean('cross-shard'):.1f} s "
        f"(paper: ~34 s)",
        "",
        "--- with conflicts and retries (Fig. 7 left) ---",
        _cdf_table(retry),
    ]
    hist = retry.retry_histogram()
    retried = {k: v for k, v in hist.items() if k >= 1}
    total_retried = sum(retried.values())
    if total_retried:
        once_share = retried.get(1, 0) / total_retried
        many_share = sum(v for k, v in retried.items() if k > 3) / total_retried
        sections += [
            "",
            f"retrying ops: {total_retried} of {retry.ops_completed}; "
            f"retried once: {once_share * 100:.0f}% (paper: 66%); "
            f"retried >3 times: {many_share * 100:.1f}% (paper: ~1%)",
        ]
    emit("fig7_latency", "\n".join(str(s) for s in sections))

    # Oracle mode shape: cross ~ 5 blocks vs single ~ 1 block.
    single = oracle.latency.mean("single-shard")
    cross = oracle.latency.mean("cross-shard")
    assert 3.0 < single < 11.0
    assert 20.0 < cross < 45.0
    assert cross > 3.5 * single
    # No convoy effect: single-shard latency unaffected by cross traffic
    # (p90 of single stays around one block interval).
    assert percentile(oracle.latency.samples("single-shard"), 0.9) < 3 * single
    # Roughly 10% of aggregated ops sit at the cross-shard plateau.
    aggregated = oracle.latency.all_samples()
    slow = sum(1 for s in aggregated if s > 15.0) / len(aggregated)
    assert 0.04 < slow < 0.2
    # Retry mode: conflicts happened, and the retry-count distribution
    # is highly skewed, as the paper reports (66% retry once, ~1% more
    # than three times).
    assert retry.failures > 0
    assert total_retried > 0
    assert retried.get(1, 0) == max(retried.values())
    assert retried.get(1, 0) / total_retried > 0.5
    assert sum(v for k, v in retried.items() if k > 3) / total_retried < 0.08
    # Conflicts raise latency relative to the oracle run.
    assert percentile(retry.latency.all_samples(), 0.99) >= percentile(aggregated, 0.99)
