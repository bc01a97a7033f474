"""Figure 9: gas and monetary cost of the five IBC applications.

The gas meter splits every move into the paper's stacked components:

* **move1** — the locking transaction at the source;
* **create** — recreating the contract at the target: CREATE plus, on
  Ethereum-flavoured targets, the per-byte code deposit (the hatched
  bars; ~70 % of the total for SCoin and ScalableKitties, charged again
  when giveBirth creates the kitten);
* **move2** — proof verification and SSTORE-ing the moved state;
* **complete** — the application's completion transactions.

Dollar conversion follows the paper: 1 gas = 2 Gwei, 1 ETH = $144
(December 2019).  Expected shape: Store 100 ≈ 2 Mgas dominated by
storage recreation; Burrow targets pay no code deposit.
"""

from __future__ import annotations

from bench_common import emit, format_table, once

from repro.ibc.costs import gas_to_mgas, gas_to_usd
from repro.ibc.scenarios import (
    APPS,
    APP_LABELS,
    BURROW_ID,
    ETHEREUM_ID,
    IBCExperiment,
)

DIRECTIONS = (
    ("Burrow -> Ethereum", BURROW_ID, ETHEREUM_ID),
    ("Ethereum -> Burrow", ETHEREUM_ID, BURROW_ID),
)


def _run_all():
    results = {}
    for app in APPS:
        for label, src, dst in DIRECTIONS:
            results[(app, label)] = IBCExperiment(seed=1).run_app(app, src, dst)
    return results


def test_fig9_ibc_gas(benchmark):
    results = once(benchmark, _run_all)

    sections = []
    gas = {}
    for label, _src, _dst in DIRECTIONS:
        rows = []
        for app in APPS:
            phases = results[(app, label)]
            g = phases.gas
            gas[(app, label)] = g
            total = sum(g.values())
            rows.append(
                [
                    APP_LABELS[app],
                    g.get("move1", 0),
                    g.get("create", 0),
                    g.get("move2", 0),
                    g.get("complete", 0),
                    round(gas_to_mgas(total), 2),
                    round(gas_to_usd(total), 2),
                ]
            )
        sections.append(f"--- Gas from {label} ---")
        sections.append(
            format_table(
                ["application", "move1", "create", "move2", "complete", "total (Mgas)", "price ($)"],
                rows,
            )
        )
        sections.append("")
    emit("fig9_ibc_gas", "\n".join(sections))

    to_eth = "Burrow -> Ethereum"
    to_burrow = "Ethereum -> Burrow"

    # Storage recreation scales linearly with the moved state.
    for label, _s, _d in DIRECTIONS:
        m1 = gas[("store1", label)]["move2"]
        m10 = gas[("store10", label)]["move2"]
        m100 = gas[("store100", label)]["move2"]
        assert m10 > 5 * m1 * 0.5 and m100 > 5 * m10
        # Store 100 lands around the paper's ~2 Mgas.
        total100 = sum(gas[("store100", label)].values())
        assert 1.8e6 < total100 < 2.6e6
        assert 0.5 < gas_to_usd(total100) < 0.8

    # Code recreation ~70% of SCoin/Kitties cost on Ethereum targets...
    for app in ("scoin", "kitties"):
        g = gas[(app, to_eth)]
        create_plus_complete_code = g["create"]
        assert create_plus_complete_code / sum(g.values()) > 0.5
    # ...while Burrow charges no per-byte deposit, so 'create' is tiny.
    for app in ("scoin", "kitties"):
        g = gas[(app, to_burrow)]
        assert g["create"] < 0.2 * sum(g.values())

    # ScalableKitties pays creation again in giveBirth on Ethereum
    # ("thus it pays for the gas again"): its completion gas exceeds
    # SCoin's transfer by far on the Ethereum target.
    assert gas[("kitties", to_eth)]["complete"] > 3 * gas[("scoin", to_eth)]["complete"]

    # move1 is cheap and nearly constant everywhere.
    for key, g in gas.items():
        assert g["move1"] < 40_000
