"""Ablation: read throughput vs. replica count, staleness-bounded.

The Move protocol gives a contract exactly one writable copy; the
replication layer (``docs/REPLICATION.md``) adds verifiable read-only
mirrors so *read* traffic can fan out without moving the active copy.
This benchmark measures that trade on a read-heavy token workload:

* a source chain hosts the token (all writes land there, on a steady
  cadence, so delta syncs keep flowing);
* 1 or 4 peer chains host mirrors synced by the relay protocol
  (light-client headers + Merkle proofs captured at commit);
* every chain runs a saturated read loop at a fixed per-chain serving
  capacity — the replica count is the only variable.

Each replica-served read samples the mirror's *observed* staleness
(source blocks between the target's view of the source head and the
height the replica reproduces).  The protocol promises ``p +
state_root_lag`` source blocks, and the gate holds **every** sample to
that bound — a replica is either current-within-bound or typed
unavailable, never quietly stale.

Gates: ≥2× read throughput from 1 to 4 replicas, zero unavailable
reads at steady state, every staleness sample within the bound, and a
byte-identical replay of the 4-replica run from the same seed.

Results: ``benchmarks/results/BENCH_replication.json`` (+ text table).
"""

from __future__ import annotations

import json

from bench_common import RESULTS_DIR, emit, format_table, full_scale, once

from repro.chain.params import burrow_params
from repro.chain.tx import DeployPayload, CallPayload, sign_transaction
from repro.crypto.keys import KeyPair
from repro.errors import ReplicaUnavailable
from repro.lang.movable import MovableContract
from repro.node import Node
from repro.runtime import MapSlot, external, register_contract, view

OWNER = KeyPair.from_name("replication-bench-owner")

#: accounts readers poll (all credited before measurement starts)
ACCOUNTS = 10
#: reads per simulated second one chain can serve
CAPACITY = 25.0
#: seconds between writes on the source (keeps delta syncs flowing)
WRITE_INTERVAL = 7.0
SEED = 23


@register_contract
class ReplToken(MovableContract):
    """A minimal token: one hot write method, one hot read method."""

    balances = MapSlot(int, int)

    @external
    def credit(self, account: int, amount: int) -> None:
        self.balances[account] = amount

    @view
    def balance_of(self, account: int) -> int:
        return self.balances[account]


def _params():
    if full_scale():
        return dict(duration=300.0, capacity=40.0)
    return dict(duration=120.0, capacity=CAPACITY)


def _commit(node, chain_id, payload, nonce):
    tx = sign_transaction(OWNER, payload, nonce=nonce)
    assert node.submit(chain_id, tx)
    ok = node.run_until(
        lambda: node.receipt(chain_id, tx.tx_id) is not None,
        max_time=node.now + 120.0,
    )
    assert ok, "setup transaction never committed"
    receipt = node.receipt(chain_id, tx.tx_id)
    assert receipt.success, receipt.error
    return receipt


def _run(replicas: int, seed: int):
    """One measured run; everything in the result derives from seed."""
    params = _params()
    node = Node(
        [burrow_params(i) for i in range(1, replicas + 2)],
        seed=seed,
        verify_signatures=False,
    )
    manager = node.attach_replication()
    node.start()

    receipt = _commit(
        node, 1, DeployPayload(code_hash=ReplToken.CODE_HASH), nonce=0
    )
    address = receipt.return_value
    for account in range(ACCOUNTS):
        _commit(
            node, 1,
            CallPayload(address, "credit", (account, 100 + account)),
            nonce=1 + account,
        )

    targets = list(range(2, replicas + 2))
    manager.replicate(address, 1, targets)
    ok = node.run_until(
        lambda: len(manager.mirrors(address)) == replicas
        and all(m.available for m in manager.mirrors(address).values()),
        max_time=node.now + 300.0,
    )
    assert ok, f"mirrors never went live: {manager.status(address)}"

    bound = next(iter(manager.mirrors(address).values())).staleness_bound
    stats = {
        "reads": {chain_id: 0 for chain_id in node.chains},
        "staleness": [],
        "unavailable": 0,
        "writes": 0,
    }
    end = node.now + params["duration"]
    service_time = 1.0 / params["capacity"]

    def serve(chain_id, tick):
        if node.sim.now >= end:
            return
        account = tick % ACCOUNTS
        try:
            manager.read(
                address, "balance_of", account,
                prefer_chain=chain_id, fallback=False,
            )
        except ReplicaUnavailable:
            stats["unavailable"] += 1
        else:
            stats["reads"][chain_id] += 1
            mirror = manager.mirror(address, chain_id)
            if mirror is not None:
                # Observed staleness: how far the replica trails the
                # source head *as this target has seen it*.
                store = node.chain(chain_id).light_client.store_for(1)
                stats["staleness"].append(
                    max(0, store.head_height - mirror.synced_height)
                )
        node.sim.schedule(service_time, lambda: serve(chain_id, tick + 1))

    def write(turn):
        if node.sim.now >= end:
            return
        tx = sign_transaction(
            OWNER,
            CallPayload(address, "credit", (turn % ACCOUNTS, 1000 + turn)),
            nonce=1000 + turn,
        )
        node.submit(1, tx)
        stats["writes"] += 1
        node.sim.schedule(WRITE_INTERVAL, lambda: write(turn + 1))

    for chain_id in node.chains:
        node.sim.schedule(service_time, lambda c=chain_id: serve(c, 0))
    node.sim.schedule(WRITE_INTERVAL, lambda: write(0))
    node.run_for(params["duration"])
    node.stop()

    total = sum(stats["reads"].values())
    return {
        "replicas": replicas,
        "chains": len(node.chains),
        "staleness_bound": bound,
        "reads_by_chain": {str(k): v for k, v in stats["reads"].items()},
        "reads_total": total,
        "reads_per_second": total / params["duration"],
        "unavailable": stats["unavailable"],
        "writes": stats["writes"],
        "staleness_samples": len(stats["staleness"]),
        "staleness_max": max(stats["staleness"]) if stats["staleness"] else 0,
        "staleness_mean": (
            sum(stats["staleness"]) / len(stats["staleness"])
            if stats["staleness"]
            else 0.0
        ),
        "source_height": node.chain(1).height,
        "_staleness": stats["staleness"],
    }


def _run_experiment():
    one = _run(replicas=1, seed=SEED)
    four = _run(replicas=4, seed=SEED)
    replay = _run(replicas=4, seed=SEED)
    return one, four, replay


def test_ablation_replication(benchmark):
    one, four, replay = once(benchmark, _run_experiment)

    ratio = four["reads_per_second"] / max(one["reads_per_second"], 1e-9)
    rows = []
    for run in (one, four):
        rows.append(
            [
                f"{run['replicas']} replica(s)",
                run["chains"],
                round(run["reads_per_second"], 1),
                run["staleness_max"],
                run["staleness_bound"],
                run["unavailable"],
                run["writes"],
            ]
        )
    emit(
        "ablation_replication",
        format_table(
            [
                "deployment",
                "chains",
                "reads/s",
                "max staleness",
                "bound",
                "unavailable",
                "writes",
            ],
            rows,
        )
        + f"\nread-throughput scaling 1 -> 4 replicas: {ratio:.2f}x",
    )

    # Gate 1: replicas buy read throughput (>= 2x from 1 to 4).
    assert ratio >= 2.0, f"read scaling {ratio:.2f}x < 2x"
    # Gate 2: never unavailable at steady state (mirrors stayed LIVE).
    assert one["unavailable"] == 0 and four["unavailable"] == 0
    # Gate 3: EVERY replica read sat within the staleness bound.
    for run in (one, four):
        assert run["staleness_samples"] > 0
        assert all(s <= run["staleness_bound"] for s in run["_staleness"]), (
            f"staleness exceeded the bound: max {run['staleness_max']} > "
            f"{run['staleness_bound']}"
        )
    # Gate 4: the run is a pure function of its seed.
    assert four == replay, "4-replica run did not replay seed-exactly"

    results = {
        "seed": SEED,
        "accounts": ACCOUNTS,
        "write_interval": WRITE_INTERVAL,
        "params": _params(),
        "one_replica": {k: v for k, v in one.items() if k != "_staleness"},
        "four_replicas": {k: v for k, v in four.items() if k != "_staleness"},
        "scaling": ratio,
        "replay_identical": four == replay,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "BENCH_replication.json").write_text(
        json.dumps(results, indent=2, sort_keys=True) + "\n"
    )
