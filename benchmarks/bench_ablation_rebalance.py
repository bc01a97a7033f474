"""Ablation: Move-based load balancing vs. static hash partitioning (§X).

The paper's conclusion names "decentralized load balancing smart
contracts for sharded blockchains" as an application the Move primitive
opens up.  This benchmark carries that claim: the
:class:`~repro.rebalance.rebalancer.Rebalancer` watches the cluster's
signal plane on the simulated clock and issues Moves by itself, with
hysteresis and cooldowns keeping it from thrashing.  Its decisions are a
pure function of the public block stream, and movers fan out across
cool shards by the owner-keyed
:func:`~repro.rebalance.policy.spread_target` draw, so every client
watching the same blocks computes the same moves.

Scenario: a 4-shard cluster under **hash partitioning** (the paper's
static placement) with a *skewed community* — every client whose
account hashes to shard 0 runs flat out while the rest mostly idle, so
shard 0 saturates while three shards sit near-empty.  Static placement
has no answer to this; the rebalancer migrates the hot accounts off
shard 0 until its pressure drops below the hysteresis exit.

Three runs from identical seeds:

* **static** — no rebalancer: the baseline the paper's hash
  partitioning would give;
* **auto** — the rebalancer active: must beat static on throughput
  *and* p99 latency;
* **replay** — auto again, byte-for-byte: the decision log must be
  identical (decisions derive only from public, seeded state).

Gates: auto > static throughput, auto p99 < static p99, per-shard
utilization more even under auto than static (max − min), zero thrash
(no contract decided twice within one contract-cooldown window, never
more than ``max_moves_per_tick`` decisions per tick), at least one
completed move, and an identical replay log.

Results: ``benchmarks/results/BENCH_rebalance.json`` (+ a text table).
"""

from __future__ import annotations

import json

from bench_common import RESULTS_DIR, emit, format_table, full_scale, once

from repro.rebalance import RebalancePolicy, ShardLoadMonitor
from repro.sharding.cluster import ShardedCluster
from repro.telemetry import percentile
from repro.workload.clients import ScoinWorkload

SHARDS = 4
#: low per-block capacity so the hot community actually saturates shard 0
BLOCK_CAPACITY = 10
#: seconds an off-community client pauses between operations
BACKGROUND_THINK = 100.0
#: the policy knobs under test (also what the no-thrash gate checks)
POLICY = dict(
    hot_enter=0.8,
    hot_exit=0.5,
    min_gap=0.3,
    contract_cooldown=300.0,
    shard_cooldown=20.0,
    max_moves_per_tick=4,
    max_inflight=8,
)
INTERVAL = 20.0


def _params():
    if full_scale():
        return dict(clients=40, duration=400.0, warmup=150.0)
    return dict(clients=25, duration=300.0, warmup=150.0)


def _run_once(auto: bool):
    params = _params()
    cluster = ShardedCluster(
        num_shards=SHARDS, seed=77, max_block_txs=BLOCK_CAPACITY
    )
    workload = ScoinWorkload(
        cluster,
        clients_per_shard=params["clients"],
        cross_rate=0.0,
        seed=5,
        hot_shard=0,  # hash partitioning with a skewed community on shard 0
        background_think=BACKGROUND_THINK,
    )
    monitor = ShardLoadMonitor(cluster.shards, window_blocks=8)

    # Build the world first; the rebalancer only starts once placement
    # is settled (it must react to workload skew, not setup traffic).
    sim = cluster.sim
    cluster.start()
    ready = [False]
    workload.setup(lambda: ready.__setitem__(0, True))
    while not ready[0]:
        progressed = sim.run(until=sim.now + 10.0)
        if progressed == 0 and not ready[0] and sim.pending() == 0:
            raise RuntimeError("setup stalled")

    rebalancer = None
    if auto:
        rebalancer = cluster.auto_rebalancer(
            actuator=workload.relocate_actuator(),
            policy=RebalancePolicy(**POLICY),
            interval=INTERVAL,
        )
        rebalancer.start()
    report = workload.measure_again(params["duration"], warmup=params["warmup"])
    if rebalancer is not None:
        rebalancer.stop()
    return report, monitor.utilizations(), rebalancer


def _run_experiment():
    static_report, static_util, _ = _run_once(auto=False)
    auto_report, auto_util, rebalancer = _run_once(auto=True)
    replay_report, _, replayed = _run_once(auto=True)
    return (
        static_report,
        static_util,
        auto_report,
        auto_util,
        rebalancer,
        replay_report,
        replayed,
    )


def _assert_no_thrash(decision_log, contract_cooldown, max_moves_per_tick):
    """Zero thrash: per-contract decisions at least one cooldown apart,
    and never more than the per-tick bound in one evaluation."""
    last_decided = {}
    per_tick = {}
    for entry in decision_log:
        contract, at = entry["contract"], entry["at"]
        if contract in last_decided:
            gap = at - last_decided[contract]
            assert gap >= contract_cooldown, (
                f"{contract} re-decided after {gap:.0f}s < {contract_cooldown}s"
            )
        last_decided[contract] = at
        per_tick[entry["tick"]] = per_tick.get(entry["tick"], 0) + 1
    assert all(count <= max_moves_per_tick for count in per_tick.values())


def test_ablation_rebalance(benchmark):
    (
        static_report,
        static_util,
        auto_report,
        auto_util,
        rebalancer,
        replay_report,
        replayed,
    ) = once(benchmark, _run_experiment)

    static_p99 = percentile(static_report.latency.samples("single-shard"), 0.99)
    auto_p99 = percentile(auto_report.latency.samples("single-shard"), 0.99)
    moved = len(rebalancer.moves("ok"))
    failed = len(rebalancer.moves("failed"))
    auto_log = json.dumps(rebalancer.decision_log, sort_keys=True)
    replay_log = json.dumps(replayed.decision_log, sort_keys=True)

    rows = [
        [
            "static hash partitioning",
            round(static_report.ops_per_second, 2),
            round(static_report.latency.mean("single-shard"), 1),
            round(static_p99, 1),
            " ".join(f"{u:.2f}" for u in static_util),
            0,
        ],
        [
            "auto-rebalanced (Move control loop)",
            round(auto_report.ops_per_second, 2),
            round(auto_report.latency.mean("single-shard"), 1),
            round(auto_p99, 1),
            " ".join(f"{u:.2f}" for u in auto_util),
            moved,
        ],
    ]
    emit(
        "ablation_rebalance",
        format_table(
            [
                "deployment",
                "ops/s",
                "mean lat (s)",
                "p99 lat (s)",
                "per-shard utilization",
                "moves",
            ],
            rows,
        ),
    )

    results = {
        "shards": SHARDS,
        "block_capacity": BLOCK_CAPACITY,
        "policy": POLICY,
        "interval": INTERVAL,
        "static": {
            "ops_per_second": static_report.ops_per_second,
            "mean_latency": static_report.latency.mean("single-shard"),
            "p99_latency": static_p99,
            "utilization": static_util,
        },
        "auto": {
            "ops_per_second": auto_report.ops_per_second,
            "mean_latency": auto_report.latency.mean("single-shard"),
            "p99_latency": auto_p99,
            "utilization": auto_util,
            "moves_ok": moved,
            "moves_failed": failed,
            "decisions": len(rebalancer.decision_log),
            "ticks": rebalancer.ticks,
        },
        "replay": {
            "ops_per_second": replay_report.ops_per_second,
            "decision_log_identical": auto_log == replay_log,
        },
        "decision_log": rebalancer.decision_log,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_rebalance.json").write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n"
    )

    # The skewed community saturates shard 0 under static placement...
    assert static_util[0] > 0.8
    # ...the control loop actually moves contracts...
    assert moved > 0
    # ...and wins on throughput AND tail latency...
    assert auto_report.ops_per_second > static_report.ops_per_second
    assert auto_p99 < static_p99
    # ...with load visibly more even across shards.
    assert max(auto_util) - min(auto_util) < max(static_util) - min(static_util)
    # Zero thrash: bounded moves per window, spaced by the cooldown.
    _assert_no_thrash(
        rebalancer.decision_log,
        POLICY["contract_cooldown"],
        POLICY["max_moves_per_tick"],
    )
    # Decisions replay byte-identically from the same seeds.
    assert auto_log == replay_log
