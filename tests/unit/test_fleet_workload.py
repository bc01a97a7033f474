"""Unit tests for the open-loop driver, :class:`FleetWorkload`.

The first four drive it as the saturation ablation does: one gateway
replica whose limits never bind, uniform client rates and every request
``bulk``, so the chain's block capacity (``max_block_txs`` per 5.4 s
block) is the knee.
"""

from repro.gateway import GatewayLimits
from repro.telemetry import percentile
from repro.workload.fleet import FleetWorkload, FleetWorkloadReport

BLOCK_INTERVAL = 5.4


def run(rate, duration=200.0, capacity=130, seed=41):
    workload = FleetWorkload(
        clients=64,
        replicas=1,
        total_rate=rate,
        zipf_s=0.0,
        class_mix=(0.0, 0.0, 1.0),
        seed=seed,
        limits=GatewayLimits(
            max_queue_depth=10**6, batch_size=10**4, mempool_headroom=10**4
        ),
        block_interval=BLOCK_INTERVAL,
        max_block_txs=capacity,
    )
    return workload.run(duration, drain=0.0)


def test_underload_achieves_offered_rate():
    report = run(rate=8.0)
    assert abs(report.throughput - 8.0) < 1.5
    assert report.unresolved < 30
    assert report.latency.mean("bulk") < 8.0
    assert report.shed_total == 0


def test_overload_clamps_at_capacity():
    report = run(rate=80.0, capacity=50)
    capacity_tps = 50 / BLOCK_INTERVAL
    assert 0.6 * capacity_tps < report.throughput < capacity_tps * 1.2
    # The backlog grows: what was offered past capacity is still queued.
    assert report.unresolved > 500
    assert report.shed_total == 0
    assert report.latency.mean("bulk") > 10.0


def test_submission_counts_are_poisson_scale():
    report = run(rate=10.0, duration=300.0)
    # ~3000 expected submissions in the window; allow wide Poisson band.
    assert 2500 < report.submitted < 3500


def test_reports_are_reproducible():
    a = run(rate=6.0, seed=9)
    b = run(rate=6.0, seed=9)
    assert a.to_dict() == b.to_dict()
    assert a.latency.mean("bulk") == b.latency.mean("bulk")


def test_throughput_counts_only_the_offer_window():
    # Offered 2.5x one replica's flush capacity; the drain then confirms
    # the queued backlog, which must not count as served throughput.
    limits = GatewayLimits(
        max_queue_depth=256, batch_size=16, flush_interval=0.5, mempool_headroom=4
    )
    report = FleetWorkload(
        clients=50, replicas=1, total_rate=80.0, seed=5, limits=limits
    ).run(duration=20.0, drain=20.0)
    assert report.confirmed > 20.0 * limits.batch_size / limits.flush_interval
    assert report.throughput <= limits.batch_size / limits.flush_interval


def test_latency_p99_uses_the_shared_quantile_rule():
    report = FleetWorkloadReport(clients=1, replicas=1, duration=1.0, offered_rate=1.0)
    samples = [float(i) for i in range(100)]
    for value in reversed(samples):
        report.latency.add("bulk", value)
    assert report.latency_p99("bulk") == percentile(samples, 0.99)
    assert report.latency_p99("move") is None
