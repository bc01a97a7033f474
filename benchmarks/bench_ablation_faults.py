"""Ablation: shard throughput under fail-stop validators and chaos.

The paper runs fault-free performance experiments; this ablation
quantifies the robustness margin its BFT substrate carries: a shard
keeps processing the SCoin workload with up to f < n/3 crashed
validators (crashed proposers cost round-timeouts), and halts — rather
than forking — beyond the quorum bound.  All adversity is driven by the
:mod:`repro.faults` harness: each row is a :class:`FaultPlan` (the
f-sweep rows are fixed crash schedules; the ``chaos`` row is a seeded
mixed schedule of message drops/duplicates/delays, partitions, crashes
and proposer stalls) applied by the one-shard node's
:class:`~repro.faults.injector.FaultInjector`.
"""

from __future__ import annotations

from bench_common import emit, format_table, once

from repro.chain.params import burrow_params
from repro.chain.tx import TransferPayload, sign_transaction
from repro.consensus.tendermint import TendermintEngine
from repro.crypto.keys import KeyPair
from repro.faults import FaultEvent, FaultPlan
from repro.node import Node

VALIDATORS = 10
DURATION = 400.0
CLIENTS = 30

#: fault kinds a single isolated shard can host (no header relays here)
SHARD_KINDS = ("drop", "duplicate", "delay", "partition", "crash", "stall_proposer")


def _crash_plan(crashed: int, engine: TendermintEngine) -> FaultPlan:
    """Permanent fail-stop of the first ``crashed`` validators."""
    events = tuple(
        FaultEvent(0.0, "crash", chain=1, target=validator, duration=2 * DURATION)
        for validator in engine.validators[:crashed]
    )
    return FaultPlan(seed=31 + crashed, duration=DURATION, events=events)


def _run_with_plan(seed: int, make_plan):
    node = Node(
        burrow_params(1, validator_count=VALIDATORS),
        seed=seed,
        driver="consensus",
        verify_signatures=False,
    )
    sim, chain, (engine,) = node.sim, node.chain(1), node.engines
    # The injector draws its dice from plan.seed; every plan here
    # carries the run seed.
    plan = make_plan(engine)
    node.apply_faults(plan)
    node.start()

    users = [KeyPair.from_name(f"fault-user-{i}") for i in range(CLIENTS)]
    chain.fund({u.address: 10_000 for u in users})
    done = [0]

    def client_loop(user):
        tx = sign_transaction(user, TransferPayload(to=users[0].address, amount=1))

        def after(_receipt):
            done[0] += 1
            if sim.now < DURATION:
                client_loop(user)

        chain.wait_for(tx.tx_id, after)
        sim.schedule(0.2, chain.submit, tx)

    for user in users:
        client_loop(user)
    sim.run(until=DURATION)
    return {
        "blocks": chain.height,
        "txs": done[0],
        "tx_per_s": done[0] / DURATION,
        "rounds_advanced": engine.rounds_advanced,
        "faults": sum(plan.counts().values()),
    }


def _run_with_crashes(crashed: int):
    return _run_with_plan(31 + crashed, lambda engine: _crash_plan(crashed, engine))


def _run_chaos_row():
    """A seeded mixed-fault schedule (every fault survivable)."""
    return _run_with_plan(
        31,
        lambda engine: FaultPlan.from_seed(
            31,
            duration=DURATION,
            validators={1: engine.validators},
            intensity=2.0,
            kinds=SHARD_KINDS,
        ),
    )


def test_ablation_validator_faults(benchmark):
    def run():
        results = {crashed: _run_with_crashes(crashed) for crashed in (0, 1, 3, 4)}
        results["chaos"] = _run_chaos_row()
        return results

    results = once(benchmark, run)

    def label(key):
        return "mixed" if key == "chaos" else key

    def alive(key):
        return "varies" if key == "chaos" else f"{VALIDATORS - key}/{VALIDATORS}"

    rows = [
        [
            label(key),
            alive(key),
            stats["faults"],
            stats["blocks"],
            round(stats["tx_per_s"], 1),
            stats["rounds_advanced"],
        ]
        for key, stats in results.items()
    ]
    emit(
        "ablation_faults",
        format_table(
            ["crashed", "alive", "faults", "blocks", "tx/s", "round timeouts"], rows
        )
        + "\n\nquorum = 7/10: f<=3 keeps committing; f=4 halts (safety over"
        " liveness).\nchaos = FaultPlan.from_seed(31): drops, duplicates,"
        " delays, partitions,\ncrashes and proposer stalls mixed — survivable"
        " by construction, so the\nshard must stay live (and does).",
    )

    # f <= 3: live, with modest throughput cost from proposer timeouts.
    assert results[0]["tx_per_s"] > 0
    for crashed in (1, 3):
        assert results[crashed]["blocks"] > 30
        assert results[crashed]["tx_per_s"] > 0.5 * results[0]["tx_per_s"]
    # Crashed proposers show up as round timeouts.
    assert results[3]["rounds_advanced"] > results[0]["rounds_advanced"]
    # f = 4 (quorum lost): the chain halts instead of forking.
    assert results[4]["blocks"] <= 1
    assert results[4]["txs"] == 0
    # The mixed chaos schedule is survivable by construction: the shard
    # keeps committing through it.
    assert results["chaos"]["faults"] >= 4
    assert results["chaos"]["blocks"] > 30
    assert results["chaos"]["tx_per_s"] > 0.25 * results[0]["tx_per_s"]
