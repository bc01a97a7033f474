"""Ablation: the confirmation depth ``p`` and block interval knobs.

Section IV-A introduces ``p`` — how many blocks behind the head a
transaction's block must be before peers accept proofs about it — as a
per-chain configured parameter.  This ablation sweeps it on the PoW
source (where it guards against forks) and sweeps the BFT chain's block
interval, showing the cost model behind the paper's choices:

* total move latency from a PoW source grows linearly in ``p`` at
  roughly one expected block interval per unit — p=6 is the fork-safety
  premium Fig. 8 pays;
* cross-chain latency from a Tendermint source scales linearly with
  the block interval, since every protocol phase is measured in blocks.
"""

from __future__ import annotations

import statistics

from bench_common import emit, format_table, full_scale, once

from repro.ibc.scenarios import BURROW_ID, ETHEREUM_ID, IBCExperiment

P_VALUES = (1, 3, 6, 12)
INTERVALS = (2.5, 5.0, 10.0)


def _seeds():
    return range(4) if full_scale() else range(3)


def _sweep_confirmation_depth():
    """Move a Store-10 from Ethereum to Burrow for several p values."""
    out = {}
    for p in P_VALUES:
        waits = []
        for seed in _seeds():
            experiment = IBCExperiment(
                seed=seed, ethereum_overrides={"confirmation_depth": p}
            )
            phases = experiment.run_app("store10", ETHEREUM_ID, BURROW_ID)
            waits.append((phases.wait_proof_time, phases.total_time))
        out[p] = (
            statistics.mean(w for w, _t in waits),
            statistics.mean(t for _w, t in waits),
        )
    return out


def _sweep_block_interval():
    """Move a Store-10 from Burrow to Ethereum for several intervals."""
    out = {}
    for interval in INTERVALS:
        totals = []
        for seed in _seeds():
            experiment = IBCExperiment(
                seed=seed, burrow_overrides={"block_interval": interval}
            )
            phases = experiment.run_app("store10", BURROW_ID, ETHEREUM_ID)
            totals.append((phases.move1_time + phases.wait_proof_time, phases.total_time))
        out[interval] = (
            statistics.mean(s for s, _t in totals),
            statistics.mean(t for _s, t in totals),
        )
    return out


def test_ablation_confirmation_depth_and_interval(benchmark):
    def run():
        return _sweep_confirmation_depth(), _sweep_block_interval()

    depth_sweep, interval_sweep = once(benchmark, run)

    depth_rows = [
        [p, round(wait, 1), round(total, 1)] for p, (wait, total) in depth_sweep.items()
    ]
    interval_rows = [
        [interval, round(source_side, 1), round(total, 1)]
        for interval, (source_side, total) in interval_sweep.items()
    ]
    emit(
        "ablation_confirmation",
        "--- p sweep (Ethereum source, 15 s expected blocks) ---\n"
        + format_table(["p (blocks)", "wait+proof (s)", "move total (s)"], depth_rows)
        + "\n\n--- Burrow block-interval sweep (Burrow source) ---\n"
        + format_table(
            ["interval (s)", "source phases (s)", "move total (s)"], interval_rows
        ),
    )

    # Wait grows monotonically in p, roughly ~15 s per extra block.
    waits = [depth_sweep[p][0] for p in P_VALUES]
    assert waits == sorted(waits)
    assert depth_sweep[12][0] > depth_sweep[1][0] + 5 * 15 * 0.5
    # Expectation of the p-block wait is ~p * 15 s (generous band for
    # exponential-variance on a few seeds).
    assert 0.4 * 6 * 15 < depth_sweep[6][0] < 2.0 * 6 * 15
    # Source-side phases scale with the Burrow interval.
    side = [interval_sweep[i][0] for i in INTERVALS]
    assert side == sorted(side)
    assert interval_sweep[10.0][0] > 2.5 * interval_sweep[2.5][0]
