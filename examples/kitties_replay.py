"""Replay a synthetic CryptoKitties trace on a sharded deployment.

Generates a dependency-consistent workload (promo mints, siring
approvals, breeding, ownership transfers), builds the Fig. 4 dependency
DAG, and replays it on two Tendermint shards with the paper's
250-outstanding-transaction window.  Cats are hash-partitioned; breeding
cats on different shards triggers real Move1/Move2 migrations.

Run:  python examples/kitties_replay.py
"""

from repro.api import ShardedCluster
from repro.telemetry.exporters import format_series
from repro.traces.cryptokitties import TraceConfig, generate_trace
from repro.traces.dag import DependencyDAG
from repro.traces.replay import KittiesReplayer


def main() -> None:
    config = TraceConfig(n_ops=1_500, n_promo=250, n_users=120, seed=3)
    trace = generate_trace(config)
    dag = DependencyDAG(trace)
    print(f"trace: {len(trace)} operations, DAG depth {dag.depth()}, "
          f"{dag.ready_count()} initially parallel leaves")

    cluster = ShardedCluster(num_shards=2, seed=8, max_block_txs=130)
    replayer = KittiesReplayer(cluster, trace=trace, outstanding_limit=250)
    report = replayer.run(max_time=50_000)

    print(f"\nreplayed on 2 shards in {report.finished_at:.0f} simulated seconds")
    print(f"  committed transactions : {report.txs_committed} "
          f"(every one succeeded: {report.failed_txs} failures)")
    print(f"  average throughput     : {report.avg_throughput():.1f} tx/s")
    print(f"  cross-shard operations : {report.cross_shard_ops} "
          f"({report.cross_rate * 100:.2f}% — paper band: 5.86-7.93%)")
    print("\naggregated throughput over time:")
    print(format_series(
        report.throughput_series(bucket=30.0, end=report.finished_at),
        x_label="time (s)", y_label="tx/s", width=40,
    ))


if __name__ == "__main__":
    main()
