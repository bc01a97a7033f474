"""Ablation: a shard's saturation curve under open-loop load.

The paper's closed-loop clients self-throttle; offering load at a fixed
Poisson rate instead exposes the capacity knee directly.  A shard with
``max_block_txs = 130`` and a 5.4 s block cadence can absorb ≈24 tx/s:
below the knee achieved = offered and latency sits near half a block;
above it, achieved flattens at capacity and the backlog (and therefore
latency) grows without bound — the congestion that §IV-B says drives
users to move their contracts to underused shards.

The load comes from :class:`~repro.workload.fleet.FleetWorkload` as a
flat population: one gateway replica whose limits never bind, uniform
client rates, every request ``bulk``.  Achieved is what confirms inside
the offer window; backlog is what is still unresolved when it closes.
"""

from __future__ import annotations

from bench_common import emit, format_table, once

from repro.gateway import GatewayLimits
from repro.workload.fleet import FleetWorkload

BLOCK_CAPACITY = 130
#: capacity 130 txs / ~5.4 s commit cadence
CAPACITY_TPS = 24.0
OFFERED = (5.0, 15.0, 22.0, 35.0, 60.0)
DURATION = 400.0


def _sweep():
    out = {}
    for rate in OFFERED:
        # A flat population of bulk transfers through one gateway whose
        # limits never bind: the chain's block capacity is the knee.
        workload = FleetWorkload(
            clients=64,
            replicas=1,
            total_rate=rate,
            zipf_s=0.0,
            class_mix=(0.0, 0.0, 1.0),
            seed=3,
            limits=GatewayLimits(
                max_queue_depth=10**6, batch_size=10**4, mempool_headroom=10**4
            ),
            block_interval=5.4,
            max_block_txs=BLOCK_CAPACITY,
        )
        out[rate] = workload.run(DURATION, drain=0.0)
    return out


def test_ablation_saturation_curve(benchmark):
    reports = once(benchmark, _sweep)
    mean = {rate: report.latency.mean("bulk") for rate, report in reports.items()}

    rows = [
        [rate, round(report.throughput, 1), round(mean[rate], 1), report.unresolved]
        for rate, report in reports.items()
    ]
    emit(
        "ablation_saturation",
        format_table(
            ["offered (tx/s)", "achieved (tx/s)", "mean latency (s)", "backlog"], rows
        )
        + f"\n\ncapacity = {BLOCK_CAPACITY} txs / ~5.4 s blocks ≈ {CAPACITY_TPS} tx/s",
    )

    # The gateway's limits never bind: nothing is shed at any rate.
    assert all(report.shed_total == 0 for report in reports.values())
    # Below the knee: achieved tracks offered, latency ~ block time.
    for rate in (5.0, 15.0):
        assert abs(reports[rate].throughput - rate) < 0.15 * rate
        assert mean[rate] < 8.0
        assert reports[rate].unresolved < 40
    # Above the knee: achieved clamps at capacity...
    for rate in (35.0, 60.0):
        assert reports[rate].throughput < CAPACITY_TPS * 1.1
    # ...latency and backlog blow up monotonically with overload.
    assert reports[60.0].unresolved > reports[35.0].unresolved > 200
    assert mean[60.0] > mean[35.0] > 3 * mean[15.0]