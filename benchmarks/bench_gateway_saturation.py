"""Gateway saturation sweep: bounded admission under open-loop fleets.

Client fleets of increasing size push Poisson transfer load through the
:class:`~repro.gateway.SimNetTransport` at one gateway-fronted chain
(capacity ``max_block_txs / block_interval`` = 20 tx/s here).  Below
capacity the gateway is transparent — everything offered confirms and
nothing sheds.  Past capacity the admission queue hits its bound and
the overflow is *shed with machine-readable codes* while the queue's
high-water mark and the mempool stay bounded: overload costs requests,
never memory.

CI gates (the ``serving`` job):

* a 64-client fleet under capacity confirms everything — no sheds;
* overloaded fleets shed only typed ``queue_full`` / ``rate_limited``;
* ``peak_queue_depth`` never exceeds the configured bound and the
  mempool never exceeds its flush headroom;
* the flagship 64-client run replays byte-identically from its seed.

Results: ``benchmarks/results/BENCH_gateway.json`` (+ a text table).
"""

from __future__ import annotations

import json

from bench_common import RESULTS_DIR, emit, full_scale, once

from repro.gateway import GatewayLimits
from repro.metrics.report import format_table
from repro.workload.gateway import GatewayWorkload

QUEUE_BOUND = 256
HEADROOM = 4
MAX_BLOCK_TXS = 100
BLOCK_INTERVAL = 5.0
CAPACITY_TPS = MAX_BLOCK_TXS / BLOCK_INTERVAL  # 20 tx/s

#: (clients, per-client rate) — under / at / far past capacity
FLEETS = ((16, 0.5), (64, 0.25), (64, 1.0), (128, 1.5))
DURATION = 300.0 if full_scale() else 90.0
SEED = 42


def _run(clients: int, rate: float, seed: int = SEED):
    workload = GatewayWorkload(
        clients=clients,
        rate_per_client=rate,
        seed=seed,
        limits=GatewayLimits(
            max_queue_depth=QUEUE_BOUND, mempool_headroom=HEADROOM
        ),
        block_interval=BLOCK_INTERVAL,
        max_block_txs=MAX_BLOCK_TXS,
    )
    report = workload.run(duration=DURATION, drain=60.0)
    mempool_at_end = len(workload.node.chain(1).mempool)
    return report, mempool_at_end


def _sweep():
    results = {"fleets": [], "determinism": {}}
    for clients, rate in FLEETS:
        report, mempool_at_end = _run(clients, rate)
        entry = report.to_dict()
        entry["rate_per_client"] = rate
        entry["mempool_at_end"] = mempool_at_end
        results["fleets"].append(entry)
    # Fixed-seed replay of the flagship 64-client fleet.
    first, _ = _run(64, 1.0)
    second, _ = _run(64, 1.0)
    results["determinism"] = {
        "seed": SEED,
        "final_root": first.final_root,
        "replay_identical": first.to_dict() == second.to_dict(),
    }
    return results


def test_gateway_saturation(benchmark):
    results = once(benchmark, _sweep)

    rows = [
        [
            entry["clients"],
            f"{entry['offered_rate']:.0f}",
            entry["confirmed"],
            f"{entry['throughput']:.1f}",
            f"{entry['shed_rate'] * 100:.1f}%",
            ",".join(sorted(entry["shed"])) or "-",
            f"{entry['peak_queue_depth']}/{QUEUE_BOUND}",
            entry["mempool_at_end"],
        ]
        for entry in results["fleets"]
    ]
    table = format_table(
        [
            "clients",
            "offered/s",
            "confirmed",
            "tx/s",
            "shed",
            "codes",
            "peak q",
            "mempool",
        ],
        rows,
    )
    table += (
        f"\ncapacity = {MAX_BLOCK_TXS} txs / {BLOCK_INTERVAL:.0f} s blocks"
        f" = {CAPACITY_TPS:.0f} tx/s; queue bound {QUEUE_BOUND},"
        f" mempool headroom {HEADROOM} blocks\n"
        f"fixed-seed replay identical: {results['determinism']['replay_identical']}"
        f" (root {results['determinism']['final_root'][:16]}…)"
    )
    emit("gateway_saturation", table)

    results["gate"] = {
        "queue_bound": QUEUE_BOUND,
        "mempool_bound": HEADROOM * MAX_BLOCK_TXS,
        "capacity_tps": CAPACITY_TPS,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_gateway.json").write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n"
    )

    by_fleet = {
        (entry["clients"], entry["rate_per_client"]): entry
        for entry in results["fleets"]
    }
    # Below capacity the gateway is transparent: no sheds, everything
    # offered confirms — including the 64-client acceptance fleet.
    for key in ((16, 0.5), (64, 0.25)):
        entry = by_fleet[key]
        assert entry["shed"] == {}, entry
        assert entry["confirmed"] == entry["submitted"]
    # Past capacity: overload is shed with typed codes only, and the
    # confirmed rate still tracks chain capacity.
    for key in ((64, 1.0), (128, 1.5)):
        entry = by_fleet[key]
        assert entry["shed_rate"] > 0.2
        assert set(entry["shed"]) <= {"queue_full", "rate_limited"}
        assert entry["throughput"] > CAPACITY_TPS * 0.8
    # Boundedness: queue high-water mark and mempool never exceed their
    # configured limits, however hard the fleet pushes.
    for entry in results["fleets"]:
        assert entry["peak_queue_depth"] <= QUEUE_BOUND
        assert entry["mempool_at_end"] <= HEADROOM * MAX_BLOCK_TXS
        assert entry["unresolved"] == 0
    assert results["determinism"]["replay_identical"]
