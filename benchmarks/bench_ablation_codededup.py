"""Ablation: the code-deposit deduplication the paper points out.

Section VIII: "for SCoin and ScalableKitties the gas paid for the code
creation corresponds to around 70% of the total gas cost.  We note that
it is possible to reduce significantly the Ethereum contract creation
costs if the contract code is already in the blockchain."

This ablation implements and quantifies exactly that: the same
Burrow→Ethereum move scenarios under the paper's charge-every-creation
policy versus a deduplicating one (``GasSchedule.code_deposit_dedup``).
In both SCoin and ScalableKitties the scenario's setup already placed
identical code on the target chain (the destination account / cat),
so the measured move re-creates known code.
"""

from __future__ import annotations

import dataclasses

from bench_common import emit, format_table, once

from repro.ibc.costs import gas_to_usd
from repro.ibc.scenarios import BURROW_ID, ETHEREUM_ID, IBCExperiment
from repro.vm.gas import ETHEREUM_SCHEDULE

DEDUP_SCHEDULE = dataclasses.replace(ETHEREUM_SCHEDULE, code_deposit_dedup=True)


def _run_both():
    results = {}
    for label, overrides in (
        ("charge every creation (paper)", {}),
        ("dedup known code (paper's suggestion)", {"gas_schedule": DEDUP_SCHEDULE}),
    ):
        for app in ("scoin", "kitties"):
            experiment = IBCExperiment(seed=1, ethereum_overrides=overrides)
            phases = experiment.run_app(app, BURROW_ID, ETHEREUM_ID)
            results[(label, app)] = phases.gas
    return results


def test_ablation_code_deposit_dedup(benchmark):
    results = once(benchmark, _run_both)

    rows = []
    for (label, app), gas in results.items():
        total = sum(gas.values())
        rows.append(
            [
                app,
                label,
                gas.get("create", 0),
                gas.get("complete", 0),
                total,
                round(gas_to_usd(total), 2),
            ]
        )
    emit(
        "ablation_codededup",
        format_table(
            ["app", "policy", "create gas", "complete gas", "total gas", "price ($)"],
            rows,
        ),
    )

    paper = "charge every creation (paper)"
    dedup = "dedup known code (paper's suggestion)"
    for app in ("scoin", "kitties"):
        full_create = results[(paper, app)]["create"]
        dedup_create = results[(dedup, app)]["create"]
        # "reduce significantly": the deposit disappears, only the bare
        # CREATE remains.
        assert dedup_create < 0.15 * full_create
        assert sum(results[(dedup, app)].values()) < 0.6 * sum(
            results[(paper, app)].values()
        )
    # ScalableKitties saves twice: the move's recreation AND giveBirth
    # (both deposits sit in the 'create' bucket, Fig. 9's hatched-bar
    # convention): only the two bare CREATEs remain.
    assert results[(dedup, "kitties")]["create"] == 2 * 32_000
    # Application logic ('complete' minus creation) is untouched.
    assert results[(dedup, "kitties")]["complete"] == results[(paper, "kitties")]["complete"]
