"""Gateway fleet macro benchmark: replicated serving under Zipf load.

A Zipf-skewed open-loop client population (10⁴ clients at full scale,
10³ in the CI smoke) offers a 5% move / 10% view / 85% bulk priority
mix through :class:`~repro.gateway.SimNetTransport` at a
:class:`~repro.gateway.GatewayFleet`.  The flush loop is the serving
bottleneck by construction (``batch_size / flush_interval`` = 32 tx/s
per replica against a 150 tx/s chain), so replicas are what scale —
until the chain's own capacity and the shared admission budget cap the
fleet, which is the point: N replicas never overrun the mempool bound
one gateway would respect.

CI gates (the ``serving`` job):

* **transparent under capacity** — one replica offered half its flush
  capacity sheds nothing and confirms everything it was offered;
* **scaling** — aggregate confirmed throughput grows ≥2.5× from one
  replica to four at fixed offered load;
* **flat past capacity** — doubling the offered load on the 4-replica
  fleet does not collapse throughput (stays within 15% either way);
* **shed placement** — ≥95% of queue sheds land on the bulk class
  (victim attribution: the classed queue evicts bulk to admit
  moves/views);
* **bounded move latency** — move-class p99 admit→confirm latency
  stays under ``MOVE_P99_BOUND`` while the fleet is saturated and
  bulk is drowning;
* **replay** — the flagship 4-replica run replays byte-identically
  from its seed: same admission-log digest, same state root.

Throughput counts what confirms inside the offer window, so no run can
report more than its replicas flush or its chain commits.

Results: ``benchmarks/results/BENCH_gateway_fleet.json`` (+ a table).
"""

from __future__ import annotations

import json

from bench_common import RESULTS_DIR, emit, format_table, full_scale, once

from repro.workload.fleet import FleetWorkload

CLIENTS = 10_000 if full_scale() else 1_000
TOTAL_RATE = 200.0  # aggregate offered tx/s (fleet capacity is 128)
ZIPF_S = 1.1
DURATION = 120.0 if full_scale() else 40.0
DRAIN = 30.0
SEED = 42

QUEUE_BOUND = 256
BATCH = 16
FLUSH_INTERVAL = 0.5
MAX_BLOCK_TXS = 300
BLOCK_INTERVAL = 2.0
PER_REPLICA_TPS = BATCH / FLUSH_INTERVAL          # 32 tx/s
CHAIN_CAPACITY_TPS = MAX_BLOCK_TXS / BLOCK_INTERVAL  # 150 tx/s

MIN_SCALING_1_TO_4 = 2.5
MIN_BULK_SHED_SHARE = 0.95
MOVE_P99_BOUND = 6.0  # seconds, simulated, while saturated
FLAT_TOLERANCE = 0.15


def _run(replicas: int, total_rate: float = TOTAL_RATE, seed: int = SEED):
    workload = FleetWorkload(
        clients=CLIENTS,
        replicas=replicas,
        total_rate=total_rate,
        zipf_s=ZIPF_S,
        seed=seed,
        block_interval=BLOCK_INTERVAL,
        max_block_txs=MAX_BLOCK_TXS,
    )
    report = workload.run(duration=DURATION, drain=DRAIN)
    entry = report.to_dict()
    entry["mempool_at_end"] = len(workload.node.chain(1).mempool)
    return entry


def _sweep():
    results = {"runs": [], "determinism": {}}
    for replicas in (1, 2, 4):
        results["runs"].append(_run(replicas))
    # The same 4-replica fleet at double the offered load: saturation
    # must shed harder, not serve slower.
    overload = _run(4, total_rate=TOTAL_RATE * 2)
    overload["overload"] = True
    results["runs"].append(overload)
    # One replica at half its flush capacity: the gateway is transparent.
    results["runs"].append(_run(1, total_rate=PER_REPLICA_TPS / 2))
    # Fixed-seed replay of the flagship 4-replica run: identical
    # admission decisions (log digest) and identical end state (root).
    first = _run(4)
    second = _run(4)
    results["determinism"] = {
        "seed": SEED,
        "log_digest": first["log_digest"],
        "final_root": first["final_root"],
        "replay_identical": (
            first["log_digest"] == second["log_digest"]
            and first["final_root"] == second["final_root"]
            and first == second
        ),
    }
    return results


def test_gateway_fleet(benchmark):
    results = once(benchmark, _sweep)

    rows = [
        [
            entry["replicas"],
            f"{entry['offered_rate']:.0f}",
            entry["confirmed"],
            f"{entry['throughput']:.1f}",
            sum(entry["shed_by_class"].values()),
            f"{entry['shed_by_class'].get('bulk', 0)}",
            f"{entry['latency_p99_by_class']['move']}",
            f"{entry['peak_queue_depth']}/{QUEUE_BOUND}",
            entry["mempool_at_end"],
        ]
        for entry in results["runs"]
    ]
    table = format_table(
        [
            "replicas",
            "offered/s",
            "confirmed",
            "tx/s",
            "sheds",
            "bulk sheds",
            "move p99",
            "peak q",
            "mempool",
        ],
        rows,
    )
    table += (
        f"\nper-replica flush capacity = {BATCH} txs / {FLUSH_INTERVAL} s"
        f" = {PER_REPLICA_TPS:.0f} tx/s; chain capacity"
        f" {CHAIN_CAPACITY_TPS:.0f} tx/s; {CLIENTS} Zipf(s={ZIPF_S}) clients\n"
        f"fixed-seed replay identical: {results['determinism']['replay_identical']}"
        f" (log digest {results['determinism']['log_digest'][:16]}…)"
    )
    emit("gateway_fleet", table)

    results["gate"] = {
        "min_scaling_1_to_4": MIN_SCALING_1_TO_4,
        "min_bulk_shed_share": MIN_BULK_SHED_SHARE,
        "move_p99_bound": MOVE_P99_BOUND,
        "flat_tolerance": FLAT_TOLERANCE,
        "queue_bound": QUEUE_BOUND,
        "mempool_bound": 4 * MAX_BLOCK_TXS,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_gateway_fleet.json").write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n"
    )

    by_load = {
        (entry["replicas"], entry["offered_rate"]): entry for entry in results["runs"]
    }
    one = by_load[(1, TOTAL_RATE)]
    four = by_load[(4, TOTAL_RATE)]
    doubled = by_load[(4, TOTAL_RATE * 2)]
    under = by_load[(1, PER_REPLICA_TPS / 2)]

    # Under capacity the gateway is transparent: no sheds, and
    # everything offered confirms.
    assert under["shed_codes"] == {}, under
    assert under["confirmed"] == under["submitted"], under

    # Scaling: four replicas serve ≥2.5× what one does.
    scaling = four["throughput"] / one["throughput"]
    assert scaling >= MIN_SCALING_1_TO_4, (scaling, one, four)
    # Flat past capacity: 2× offered load, throughput within tolerance.
    assert doubled["throughput"] >= four["throughput"] * (1 - FLAT_TOLERANCE), (
        doubled["throughput"],
        four["throughput"],
    )
    # Shed placement: ≥95% of queue sheds land on bulk, and every shed
    # carries a typed code.
    for entry in results["runs"]:
        sheds = sum(entry["shed_by_class"].values())
        if sheds:
            bulk_share = entry["shed_by_class"].get("bulk", 0) / sheds
            assert bulk_share >= MIN_BULK_SHED_SHARE, entry["shed_by_class"]
        assert set(entry["shed_codes"]) <= {"queue_full", "rate_limited"}, entry
    # Bounded move latency at saturation (both saturated 4-replica runs).
    for entry in (four, doubled):
        p99 = entry["latency_p99_by_class"]["move"]
        assert p99 is not None and p99 <= MOVE_P99_BOUND, entry
    # Boundedness rides along: queue high-water marks and the mempool
    # respect their limits however hard the population pushes.
    for entry in results["runs"]:
        assert entry["peak_queue_depth"] <= QUEUE_BOUND
        assert entry["mempool_at_end"] <= 4 * MAX_BLOCK_TXS
        assert entry["unresolved"] == 0
    assert results["determinism"]["replay_identical"]
