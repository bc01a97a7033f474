"""Sharded SCoin under live consensus: the Section VII-B experiment.

Four Tendermint shards (10 validators each, WAN latencies from 14 AWS
regions), 30 closed-loop token-transfer clients per shard, 10 % of
operations cross-shard (the client moves its own account to the target
shard, then transfers).  Prints throughput, latency split and the
cross-shard mix — a desk-sized version of the paper's Fig. 6/7 runs.

Run:  python examples/sharded_scoin.py
"""

from repro.api import ShardedCluster
from repro.telemetry import percentile
from repro.workload.clients import ScoinWorkload


def main() -> None:
    cluster = ShardedCluster(num_shards=4, seed=42)
    workload = ScoinWorkload(
        cluster, clients_per_shard=30, cross_rate=0.10, seed=7
    )
    print("setting up: token deployment, account creation, hash placement...")
    report = workload.run(duration=400.0, warmup=50.0)

    print(f"\n4 shards x 30 clients, 10% cross-shard, {report.duration:.0f}s measured")
    print(f"  completed operations : {report.ops_completed}")
    print(f"  aggregate throughput : {report.ops_per_second:.1f} ops/s")
    print(f"  observed cross-shard : {report.observed_cross_rate * 100:.1f}%")
    print(f"  conflicts            : {report.failures} (oracle mode)")
    for kind in sorted(report.latency.kinds()):
        samples = report.latency.samples(kind)
        print(
            f"  {kind:13s} latency: mean {report.latency.mean(kind):5.1f}s  "
            f"p50 {percentile(samples, 0.5):5.1f}s  p99 {percentile(samples, 0.99):5.1f}s  "
            f"({len(samples)} ops)"
        )
    print("\ncross-shard ops take ~5 block times (Move1 + 2-block proof wait")
    print("+ Move2 + transfer); single-shard ops take ~1 — the paper's split.")


if __name__ == "__main__":
    main()
