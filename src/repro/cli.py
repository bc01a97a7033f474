"""Command-line interface: run the paper's experiments from a shell.

::

    python -m repro info
    python -m repro move-demo
    python -m repro relay-demo
    python -m repro gateway --clients 64 --rate 2.0 --duration 120
    python -m repro trace  --shards 4 --ops 2000
    python -m repro scoin  --shards 4 --clients 40 --cross 0.10 --duration 300
    python -m repro ibc    --app store10 --direction e2b
    python -m repro telemetry breakdown --workload scoin --duration 300
    python -m repro telemetry slowest   --top 5
    python -m repro telemetry export    --format chrome --out trace.json
    python -m repro obs status     --seed 11 --duration 300
    python -m repro obs slo        --seed 11 --json
    python -m repro obs postmortem --seed 11 --out bundle.json

``info``, ``gateway``, ``ibc``, ``trace --inspect`` and the
``telemetry``/``obs`` analyses accept ``--json`` for machine-readable
output.

The CLI builds everything through the stable :mod:`repro.api` facade —
the same front door applications use.  Every command prints the same
quantities the paper's corresponding section reports; heavier,
assertion-checked versions of these runs live in ``benchmarks/``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional


def _print_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_info(args) -> int:
    inventory = [
        ("repro.api", "the stable public facade (Node, Gateway, Client, errors)"),
        ("repro.node", "long-running node runtime: chains + relays + block timer"),
        ("repro.gateway", "batched admission, backpressure, rate limits, futures"),
        ("repro.core", "Move1/Move2, proof bundles, replay guard, relay, swap, GC"),
        ("repro.vm", "EVM-flavoured VM + gas schedule + OP_MOVE"),
        ("repro.merkle", "binary Merkle / IAVL / Patricia trie + {v} -> m proofs"),
        ("repro.consensus", "Tendermint-style BFT + Nakamoto PoW over simulated WAN"),
        ("repro.apps", "SCoin, ScalableKitties, Store-N"),
        ("repro.traces", "synthetic CryptoKitties trace + dependency-DAG replay"),
        ("repro.sharding", "hash partitioning, N-shard clusters"),
        ("repro.rebalance", "load signals + Move-based rebalancing control loop"),
        ("repro.ibc", "header relays, cross-chain bridge, Fig. 8/9 scenarios"),
        ("repro.telemetry", "move-lifecycle tracing, metrics registry, exporters"),
        ("repro.faults", "seeded fault plans, chaos runs, safety invariants"),
    ]
    if getattr(args, "json", False):
        _print_json({
            "paper": "Smart Contracts on the Move (DSN 2020)",
            "subsystems": {name: what for name, what in inventory},
        })
        return 0
    print("Smart Contracts on the Move — DSN 2020 reproduction")
    print()
    for name, what in inventory:
        print(f"  {name:17s} {what}")
    print()
    print("benchmarks: pytest benchmarks/ --benchmark-only")
    print("tests:      pytest tests/")
    return 0


def _demo_tx(chain, keypair, payload, clock):
    from repro.api import sign_transaction

    tx = sign_transaction(keypair, payload)
    chain.submit(tx)
    clock[0] += 5.0
    chain.produce_block(clock[0])
    receipt = chain.receipts[tx.tx_id]
    if not receipt.success:
        raise SystemExit(f"demo transaction failed: {receipt.error}")
    return receipt


def _cmd_move_demo(_args) -> int:
    from repro import api
    from repro.apps.store import StateStore

    # The served path: a node owning both chains, the gateway in front,
    # one client driving the whole Move protocol through futures.
    node = api.Node([api.burrow_params(1), api.ethereum_params(2)])
    gateway = api.Gateway(node)
    alice = api.Client(gateway, name="alice")
    gateway.start()

    receipt = alice.wait(alice.deploy(StateStore, args=(3,), chain=1))
    store = receipt.return_value
    print(f"deployed Store-3 at {store} on chain 1 (Burrow-flavoured), via gateway")

    handle = alice.move(store, source_chain=1, target_chain=2)
    node.run_until(lambda: handle.stage != "move1")
    print(f"Move1 included at height "
          f"{handle.phases.move1_included_at and node.chain(1).height}: "
          f"contract locked, L_c = {node.chain(1).location_of(store)}")

    phases = alice.wait(handle)
    if not phases.success:
        raise SystemExit(f"move failed: {phases.error}")
    print(f"proof waited {phases.wait_proof_time:.0f}s "
          f"(p = {node.chain(1).params.confirmation_depth} + root lag)")
    print(f"Move2 executed on chain 2 ({phases.gas.get('move2', 0):,} gas); "
          "contract active there:")
    print(f"  value_at(0) = {alice.view(store, 'value_at', 0, chain=2).hex()[:16]}…")
    print(f"  source copy locked, reads still served "
          f"(L_c = {node.chain(1).location_of(store)})")
    return 0


def _cmd_relay_demo(_args) -> int:
    from repro.api import CallPayload, DeployPayload, KeyPair, Move1Payload, Move2Payload, Node
    from repro.api import burrow_params, ethereum_params
    from repro.core.relay import CurrencyRelay

    # A node that is never started: the demo produces every block by hand.
    node = Node([burrow_params(1), ethereum_params(2)])
    burrow, ethereum = node.chain(1), node.chain(2)
    client1, client2 = KeyPair.from_name("client1"), KeyPair.from_name("client2")
    clock = [0.0]
    burrow.fund({client1.address: 1_000})

    relay = _demo_tx(burrow, client1, DeployPayload(code_hash=CurrencyRelay.CODE_HASH), clock).return_value
    receipt = _demo_tx(
        burrow, client1, CallPayload(relay, "create", (2, client2.address), value=700), clock
    )
    escrow = receipt.return_value
    print(f"locked 700 units on chain 1 in escrow {escrow} (born locked toward chain 2)")

    inclusion = receipt.block_height
    while burrow.height < burrow.proof_ready_height(inclusion):
        clock[0] += 5.0
        burrow.produce_block(clock[0])
    _demo_tx(ethereum, client2, Move2Payload(bundle=burrow.prove_contract_at(escrow, inclusion)), clock)
    minted = _demo_tx(ethereum, client2, CallPayload(escrow, "mint"), clock).return_value
    print(f"client2 minted {minted} pegged units on chain 2, provably backed by chain 1")

    _demo_tx(ethereum, client2, CallPayload(escrow, "burn"), clock)
    move1 = _demo_tx(ethereum, client2, Move1Payload(contract=escrow, target_chain=1), clock)
    while ethereum.height < ethereum.proof_ready_height(move1.block_height):
        clock[0] += 5.0
        ethereum.produce_block(clock[0])
    _demo_tx(burrow, client2, Move2Payload(
        bundle=ethereum.prove_contract_at(escrow, move1.block_height)), clock)
    redeemed = _demo_tx(burrow, client2, CallPayload(escrow, "redeem"), clock).return_value
    print(f"escrow returned home; client2 redeemed {redeemed} native units "
          f"(balance: {burrow.balance_of(client2.address)})")
    return 0


def _cmd_gateway(args) -> int:
    from repro.api import GatewayLimits
    from repro.workload.fleet import CLASS_LABELS, FleetWorkload

    limits = GatewayLimits(
        max_queue_depth=args.queue,
        batch_size=16,
        flush_interval=0.5,
        rate_limit=args.rate_limit,
        mempool_headroom=4,
    )
    workload = FleetWorkload(
        clients=args.clients,
        replicas=args.replicas,
        total_rate=args.clients * args.rate,
        seed=args.seed,
        limits=limits,
    )
    report = workload.run(duration=args.duration)
    if args.json:
        _print_json(report.to_dict())
        return 0
    print(f"{report.clients} Zipf clients through {report.replicas} replicas, "
          f"{report.offered_rate:.0f} tx/s aggregate for {report.duration:.0f}s, "
          f"queue bound {args.queue}/replica")
    print(f"  submitted  : {report.submitted}")
    print(f"  confirmed  : {report.confirmed} ({report.throughput:.1f} tx/s)")
    shed = ", ".join(
        f"{cls}={n}" for cls, n in sorted(report.shed_by_class.items())
    ) or "none"
    print(f"  shed       : {report.shed_total} by victim class — {shed}")
    for label in CLASS_LABELS:
        p99 = report.latency_p99(label)
        print(f"  {label:<5} p99  : "
              + (f"{p99:6.2f}s" if p99 is not None else "     —")
              + f"  ({report.confirmed_by_class.get(label, 0)}"
              f"/{report.offered_by_class.get(label, 0)} confirmed)")
    print(f"  unresolved : {report.unresolved}")
    print(f"  peak queue : {report.peak_queue_depth} (bound {args.queue})")
    print(f"  blocks     : {report.blocks}, final root {report.final_root[:16]}…")
    print(f"  log digest : {report.log_digest[:16]}… (replay witness)")
    return 0


def _cmd_trace(args) -> int:
    from repro.sharding.cluster import ShardedCluster
    from repro.telemetry.exporters import format_series
    from repro.traces.cryptokitties import TraceConfig, generate_trace
    from repro.traces.dag import DependencyDAG
    from repro.traces.io import load_trace, save_trace
    from repro.traces.replay import KittiesReplayer

    if args.load:
        trace = load_trace(args.load)
        print(f"loaded trace from {args.load}")
    else:
        config = TraceConfig(
            n_ops=args.ops,
            n_promo=max(args.ops // 10, 50),
            n_users=max(args.ops // 20, 30),
            seed=args.seed,
        )
        trace = generate_trace(config)
    if args.save:
        save_trace(trace, args.save)
        print(f"saved trace to {args.save}")
    dag = DependencyDAG(trace)
    print(f"trace: {len(trace)} ops, DAG depth {dag.depth()}, {dag.ready_count()} leaves")
    cluster = ShardedCluster(num_shards=args.shards, seed=args.seed, max_block_txs=130)
    replayer = KittiesReplayer(cluster, trace=trace, outstanding_limit=args.outstanding)
    report = replayer.run(max_time=200_000)
    print(f"replayed on {args.shards} shard(s) in {report.finished_at:.0f} sim-seconds")
    print(f"  committed txs : {report.txs_committed} ({report.failed_txs} failures)")
    print(f"  throughput    : {report.avg_throughput():.1f} tx/s")
    print(f"  cross-shard   : {report.cross_rate * 100:.2f}% of operations")
    if args.series:
        print(format_series(
            report.throughput_series(bucket=30.0, end=report.finished_at),
            x_label="time (s)", y_label="tx/s", width=40,
        ))
    if args.inspect:
        from repro.chain.stats import collect_chain_stats

        stats = [collect_chain_stats(shard) for shard in cluster.shards]
        if args.json:
            _print_json([s.to_dict() for s in stats])
        else:
            for s in stats:
                print("\n".join(s.lines()))
    return 0


def _cmd_scoin(args) -> int:
    from repro.sharding.cluster import ShardedCluster
    from repro.telemetry.metrics import percentile
    from repro.workload.clients import ScoinWorkload

    cluster = ShardedCluster(num_shards=args.shards, seed=args.seed)
    workload = ScoinWorkload(
        cluster,
        clients_per_shard=args.clients,
        cross_rate=args.cross,
        retry_mode=args.retry,
        seed=args.seed,
    )
    report = workload.run(args.duration, warmup=args.duration * 0.15)
    print(f"{args.shards} shard(s) x {args.clients} clients, "
          f"{args.cross * 100:.0f}% cross-shard"
          + (", retry mode" if args.retry else " (oracle mode)"))
    print(f"  throughput : {report.ops_per_second:.1f} ops/s "
          f"({report.ops_completed} ops in {report.duration:.0f}s)")
    print(f"  cross mix  : {report.observed_cross_rate * 100:.1f}% observed")
    for kind in sorted(report.latency.kinds()):
        samples = report.latency.samples(kind)
        print(f"  {kind:13s}: mean {report.latency.mean(kind):5.1f}s "
              f"p50 {percentile(samples, 0.5):5.1f}s p99 {percentile(samples, 0.99):6.1f}s")
    if args.retry:
        hist = report.retry_histogram()
        print(f"  conflicts  : {report.failures}; retry histogram: "
              f"{dict(sorted(hist.items()))}")
    return 0


def _cmd_ibc(args) -> int:
    from repro.ibc.costs import gas_to_mgas, gas_to_usd
    from repro.ibc.scenarios import APPS, BURROW_ID, ETHEREUM_ID, IBCExperiment

    if args.direction == "b2e":
        src, dst, label = BURROW_ID, ETHEREUM_ID, "Burrow -> Ethereum"
    else:
        src, dst, label = ETHEREUM_ID, BURROW_ID, "Ethereum -> Burrow"
    experiment = IBCExperiment(seed=args.seed)
    phases = experiment.run_app(args.app, src, dst)
    total_gas = sum(phases.gas.values())
    if args.json:
        _print_json({
            "app": args.app,
            "direction": label,
            "phases": {
                "move1": phases.move1_time,
                "wait_proof": phases.wait_proof_time,
                "move2": phases.move2_time,
                "complete": phases.complete_time,
                "total": phases.total_time,
            },
            "gas": dict(sorted(phases.gas.items())),
            "gas_total": total_gas,
            "usd": gas_to_usd(total_gas),
        })
        return 0
    print(f"{args.app} {label}")
    print(f"  move1        : {phases.move1_time:7.1f} s")
    print(f"  wait + proof : {phases.wait_proof_time:7.1f} s")
    print(f"  move2        : {phases.move2_time:7.1f} s")
    print(f"  complete     : {phases.complete_time:7.1f} s")
    print(f"  total        : {phases.total_time:7.1f} s")
    print(f"  gas          : {gas_to_mgas(total_gas):.2f} Mgas  (${gas_to_usd(total_gas):.2f})")
    for bucket, amount in sorted(phases.gas.items()):
        print(f"    {bucket:8s}: {amount:>10,}")
    return 0


def _run_chaos(args, health=False):
    """Run one chaos workload from the CLI's arguments (``--no-faults``
    swaps in an empty fault plan).  Traced, it returns ``(telemetry,
    report)``.  With ``health``, it hosts a health monitor instead and
    returns ``(monitor, report)``; ``report`` is then None when an
    invariant violation aborted the run — the monitor (and its
    postmortem of the violation) survives the abort via the
    ``on_monitor`` hook."""
    from repro.errors import InvariantViolation
    from repro.faults.chaos import run_chaos
    from repro.faults.plan import FaultPlan
    from repro.telemetry import Telemetry

    plan = None
    if args.no_faults:
        plan = FaultPlan(seed=args.seed, duration=args.duration, events=())
    telemetry = None if health else Telemetry.enabled()
    monitors = []
    try:
        report = run_chaos(
            args.seed,
            duration=args.duration,
            workload=args.workload,
            plan=plan,
            intensity=args.intensity,
            telemetry=telemetry,
            pow_peer=getattr(args, "pow_peer", False),
            replicate=getattr(args, "replicate", False),
            health=health,
            on_monitor=monitors.append,
        )
    except InvariantViolation as violation:
        if not health:
            raise
        print(f"invariant violation aborted the run: {violation}", file=sys.stderr)
        report = None
    if not health:
        return telemetry, report
    monitor = monitors[0]
    monitor.stop()
    return monitor, report


def _cmd_telemetry_breakdown(args) -> int:
    from repro.telemetry.phases import breakdown_rows, trace_phases

    telemetry, report = _run_chaos(args)
    traces = trace_phases(telemetry.tracer.finished_spans())
    rows = breakdown_rows(traces)
    if args.json:
        _print_json({
            "seed": args.seed,
            "workload": args.workload,
            "traces": len(traces),
            "moves_completed": report.moves_completed,
            "breakdown": [t.to_dict() for t in traces],
            "phases": {
                row[0]: {"mean": row[1], "p50": row[2], "p99": row[3]}
                for row in rows
                if row[0] != "total"
            },
        })
        return 0
    print(
        f"{args.workload} under chaos (seed {args.seed}, {args.duration:.0f}s): "
        f"{len(traces)} move traces, {report.moves_completed} completed"
    )
    print(f"  {'phase':<14}{'mean (s)':>10}{'p50 (s)':>10}{'p99 (s)':>10}{'share':>8}")
    for phase, mean, p50, p99, share in rows:
        print(f"  {phase:<14}{mean:>10}{p50:>10}{p99:>10}{share:>8}")
    return 0


def _cmd_telemetry_slowest(args) -> int:
    from repro.telemetry.phases import PHASES, slowest_traces, trace_phases

    telemetry, _report = _run_chaos(args)
    traces = trace_phases(telemetry.tracer.finished_spans())
    slowest = slowest_traces(traces, top=args.top)
    if args.json:
        _print_json([t.to_dict() for t in slowest])
        return 0
    print(f"slowest {len(slowest)} of {len(traces)} move traces:")
    for t in slowest:
        phase_text = " ".join(f"{p}={t.phase(p):.1f}" for p in PHASES if t.phase(p))
        status = "ok" if t.attrs.get("success") else "failed"
        print(
            f"  trace {t.trace_id:>3}  {t.total:7.1f}s  "
            f"{t.attrs.get('source_chain')}->{t.attrs.get('target_chain')} "
            f"[{status}]  {phase_text}"
        )
    return 0


def _cmd_telemetry_export(args) -> int:
    from repro.telemetry.exporters import (
        chrome_trace_json,
        registry_to_prometheus,
        spans_to_jsonl,
    )

    telemetry, _report = _run_chaos(args)
    spans = telemetry.tracer.finished_spans()
    if args.format == "jsonl":
        text = spans_to_jsonl(spans)
    elif args.format == "chrome":
        text = chrome_trace_json(spans)
    else:
        text = registry_to_prometheus(telemetry.metrics)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {len(spans)} spans to {args.out} ({args.format})")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_obs_status(args) -> int:
    monitor, report = _run_chaos(args, health=True)
    status = monitor.status()
    if args.json:
        _print_json(status)
        return 0 if report is not None else 1
    print(
        f"{args.workload} under chaos (seed {args.seed}, {args.duration:.0f}s): "
        f"{status['ticks']} health ticks over {status['probes']} probes, "
        f"{len(status['targets'])} targets"
    )
    for target, state in status["targets"].items():
        marker = "!!" if state == "unhealthy" else "ok"
        print(f"  {marker}  {target:<28s} {state}")
    if status["firing"]:
        print("firing alerts:")
        for alert in status["firing"]:
            print(f"  [{alert['severity']}] {alert['slo']} on {alert['target']}")
    else:
        print("firing alerts: none")
    print(
        f"alert transitions logged: {status['alerts_logged']}, "
        f"health transitions: {status['transitions']}, "
        f"postmortems: {status['postmortems']}"
    )
    return 0 if report is not None else 1


def _cmd_obs_slo(args) -> int:
    monitor, report = _run_chaos(args, health=True)
    log = monitor.alert_log()
    if args.json:
        _print_json({
            "seed": args.seed,
            "workload": args.workload,
            "slos": [
                {
                    "name": spec.name,
                    "kind": spec.kind,
                    "objective": spec.objective,
                    "fast_window": spec.fast_window,
                    "slow_window": spec.slow_window,
                    "severity": spec.severity,
                }
                for spec in monitor.evaluator.specs
            ],
            "alerts": log,
            "firing": monitor.firing(),
        })
        return 0 if report is not None else 1
    print(f"{len(monitor.evaluator.specs)} SLOs, {len(log)} alert transitions:")
    for entry in log:
        print(
            f"  t={entry['at']:>8.1f}  {entry['state']:<9s} "
            f"[{entry['severity']}] {entry['slo']} on {entry['target']} "
            f"(burn fast {entry['burn_fast']:.2f} / slow {entry['burn_slow']:.2f})"
        )
    if not log:
        print("  (none — every SLO stayed within budget)")
    return 0 if report is not None else 1


def _cmd_obs_postmortem(args) -> int:
    monitor, report = _run_chaos(args, health=True)
    text = monitor.last_postmortem_json()
    if not text:
        # Nothing tripped the recorder — dump the final state on demand.
        monitor.postmortem("manual")
        text = monitor.last_postmortem_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote postmortem bundle to {args.out}")
    else:
        print(text)
    return 0 if report is not None else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Smart Contracts on the Move' (DSN 2020).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="system inventory")
    info.add_argument("--json", action="store_true", help="machine-readable output")
    info.set_defaults(fn=_cmd_info)
    sub.add_parser("move-demo", help="move a contract between two chains").set_defaults(
        fn=_cmd_move_demo
    )
    sub.add_parser("relay-demo", help="Fig. 3 currency relay walkthrough").set_defaults(
        fn=_cmd_relay_demo
    )

    gateway = sub.add_parser(
        "gateway", help="open-loop Zipf client fleet against the request gateway"
    )
    gateway.add_argument("--clients", type=int, default=64)
    gateway.add_argument("--rate", type=float, default=1.0,
                         help="mean tx/s per client (Zipf-skewed)")
    gateway.add_argument("--duration", type=float, default=120.0)
    gateway.add_argument("--seed", type=int, default=0)
    gateway.add_argument("--queue", type=int, default=1024, help="admission queue bound")
    gateway.add_argument("--rate-limit", type=float, default=0.0,
                         help="per-client sustained tx/s (0 disables)")
    gateway.add_argument("--replicas", type=int, default=1,
                         help="gateway replicas sharing the admission budget")
    gateway.add_argument("--json", action="store_true", help="machine-readable output")
    gateway.set_defaults(fn=_cmd_gateway)

    trace = sub.add_parser("trace", help="replay a synthetic CryptoKitties trace")
    trace.add_argument("--shards", type=int, default=2)
    trace.add_argument("--ops", type=int, default=2_000)
    trace.add_argument("--outstanding", type=int, default=250)
    trace.add_argument("--seed", type=int, default=5)
    trace.add_argument("--series", action="store_true", help="print tx/s over time")
    trace.add_argument("--save", metavar="PATH", help="write the trace as JSON")
    trace.add_argument("--load", metavar="PATH", help="replay a saved trace")
    trace.add_argument("--inspect", action="store_true", help="per-shard statistics")
    trace.add_argument("--json", action="store_true", help="emit --inspect stats as JSON")
    trace.set_defaults(fn=_cmd_trace)

    scoin = sub.add_parser("scoin", help="closed-loop SCoin workload (Fig. 6/7)")
    scoin.add_argument("--shards", type=int, default=4)
    scoin.add_argument("--clients", type=int, default=40, help="per shard")
    scoin.add_argument("--cross", type=float, default=0.10)
    scoin.add_argument("--duration", type=float, default=300.0)
    scoin.add_argument("--retry", action="store_true", help="conflict/retry mode")
    scoin.add_argument("--seed", type=int, default=7)
    scoin.set_defaults(fn=_cmd_scoin)

    ibc = sub.add_parser("ibc", help="one cross-chain application run (Fig. 8/9)")
    from repro.ibc.scenarios import APPS

    ibc.add_argument("--app", choices=APPS, default="store10")
    ibc.add_argument("--direction", choices=["b2e", "e2b"], default="b2e")
    ibc.add_argument("--seed", type=int, default=1)
    ibc.add_argument("--json", action="store_true", help="machine-readable output")
    ibc.set_defaults(fn=_cmd_ibc)

    tele = sub.add_parser(
        "telemetry", help="traced chaos run: phase breakdown, slowest traces, export"
    )
    tsub = tele.add_subparsers(dest="telemetry_command", required=True)

    def _chaos_args(p) -> None:
        p.add_argument("--seed", type=int, default=11)
        p.add_argument("--duration", type=float, default=300.0)
        p.add_argument("--workload", choices=["scoin", "kitties"], default="scoin")
        p.add_argument("--intensity", type=float, default=1.0)
        p.add_argument("--no-faults", action="store_true", help="empty fault plan")

    breakdown = tsub.add_parser(
        "breakdown", help="per-phase latency table over all move traces"
    )
    _chaos_args(breakdown)
    breakdown.add_argument("--json", action="store_true")
    breakdown.set_defaults(fn=_cmd_telemetry_breakdown)

    slowest = tsub.add_parser("slowest", help="the slowest move traces")
    _chaos_args(slowest)
    slowest.add_argument("--top", type=int, default=10)
    slowest.add_argument("--json", action="store_true")
    slowest.set_defaults(fn=_cmd_telemetry_slowest)

    export = tsub.add_parser(
        "export", help="dump spans (JSONL / Chrome trace) or metrics (Prometheus)"
    )
    _chaos_args(export)
    export.add_argument(
        "--format", choices=["jsonl", "chrome", "prometheus"], default="jsonl"
    )
    export.add_argument("--out", metavar="PATH", help="write to a file (default stdout)")
    export.set_defaults(fn=_cmd_telemetry_export)

    obs = sub.add_parser(
        "obs", help="health-monitored chaos run: states, SLO alerts, postmortem"
    )
    osub = obs.add_subparsers(dest="obs_command", required=True)

    def _obs_args(p) -> None:
        _chaos_args(p)
        p.add_argument("--pow-peer", action="store_true",
                       help="add the PoW bystander chain")
        p.add_argument("--replicate", action="store_true",
                       help="mirror contracts cross-chain (staleness probes)")

    status = osub.add_parser("status", help="final per-target health map")
    _obs_args(status)
    status.add_argument("--json", action="store_true")
    status.set_defaults(fn=_cmd_obs_status)

    slo = osub.add_parser("slo", help="SLO specs + the deterministic alert log")
    _obs_args(slo)
    slo.add_argument("--json", action="store_true")
    slo.set_defaults(fn=_cmd_obs_slo)

    postmortem = osub.add_parser(
        "postmortem", help="the last flight-recorder bundle (canonical JSON)"
    )
    _obs_args(postmortem)
    postmortem.add_argument(
        "--out", metavar="PATH", help="write the bundle to a file (default stdout)"
    )
    postmortem.set_defaults(fn=_cmd_obs_postmortem)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
