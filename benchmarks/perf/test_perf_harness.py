"""The benchmark harness checked against its own contract, at smoke scale.

    PYTHONPATH=src python -m pytest benchmarks/perf/test_perf_harness.py

(outside tier-1: ``testpaths`` in pyproject.toml names ``tests`` only).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference  # noqa: E402
import run  # noqa: E402
import trace  # noqa: E402
import workloads  # noqa: E402

from repro.chain.chain import Chain  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")


def run_smoke(name: str, traced: int) -> dict:
    child = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
         "--scale", "smoke", "--trace", str(traced)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    assert "SMOKE (not a baseline)" in child.stdout
    return json.loads(child.stdout.splitlines()[-1])


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)
    assert BENCHMARK["run_seconds"] == run.DEFAULT_SECONDS
    assert BENCHMARK["paths"] == [str(HERE.relative_to(ROOT))]
    names = [m["name"] for kind in ("workloads", "end_to_end", "per_layer") for m in BENCHMARK[kind]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_output_names_match_benchmark_json(name):
    for traced, kind in ((0, "end_to_end"), (1, "per_layer")):
        result = run_smoke(name, traced)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in BENCHMARK[kind]}
        reported = {metric: cell["unit"] for metric, cell in result["metrics"].items()}
        assert reported == declared
    assert (HERE / "out" / f"trace_{name}.json").is_file()


def test_span_self_times_sum_to_the_traced_wall():
    tracer = trace.Tracer()
    traced = run.run_round(workloads.WORKLOADS["scoin_moves"], 5000, run.SMOKE_SHRINK, tracer)
    totals = trace.SpanTotals()
    totals.add(tracer)
    assert totals.count[trace.ROOT_SPAN] == 1
    assert sum(totals.self_time.values()) == pytest.approx(totals.wall, rel=0.02)
    # the root span is the measured phase the runner timed
    assert totals.wall == pytest.approx(traced["wall_s"], rel=0.02)
    # and its slices end with it: blocks the oracle commits while moves settle are not in them
    assert min(traced["wall_slices"]) >= 0
    assert sum(traced["wall_slices"]) == pytest.approx(traced["wall_s"])
    metrics = trace.layer_metrics(totals, traced["ops"], traced["wall_s"])
    shares = sum(value for name, (value, _unit) in metrics.items() if name.endswith(".self_share"))
    assert shares + metrics["trace.unattributed_share"][0] == pytest.approx(1.0, rel=0.02)
    assert metrics["core.moves_per_op"][0] > 0 and metrics["crypto.keccak_calls_per_op"][0] > 0


def test_rounds_fold_to_their_fastest_slices_seed_by_seed():
    def measured(seed, slices, commits=((0, 5), (1, 0), (0, 7))):
        return {
            "seed": seed, "ops": 12, "digests": {}, "commits": list(commits),
            "wall_slices": slices, "cpu_slices": slices, "children_cpu_s": 0.0,
        }

    rounds = [
        measured(1, [1.0, 2.0, 9.0, 4.0]), measured(2, [1.0, 1.0, 1.0, 1.0]),
        measured(1, [3.0, 1.0, 3.0, 5.0]), measured(2, [2.0, 2.0, 2.0, 0.5]),
    ]
    folded = run.undisturbed(rounds)
    assert folded["wall_s"] == folded["cpu_s"] == (1.0 + 1.0 + 3.0 + 4.0) + 3.5
    assert folded["ops"] == 24
    # chain 0 committed at 1.0 and again at 5.0 (seed 1), at 1.0 and 3.0
    # (seed 2), carrying 7 txs; chain 1's only block is its first
    assert folded["intervals"] == [(4000.0, 7), (2000.0, 7)]
    rounds.append(measured(2, [1.0] * 4, commits=((0, 5), (1, 1), (0, 7))))
    with pytest.raises(workloads.OracleFailure):
        run.undisturbed(rounds)


def test_host_slowdown_is_the_folded_reference_segment(monkeypatch):
    monkeypatch.setattr(reference, "NODES", 1000)
    monkeypatch.setattr(reference, "STEPS", 100)
    kernel = reference.Reference(chunks=2)
    kernel.time_segment()
    kernel.time_segment()
    first, second = kernel.segments
    assert len(first) == len(second) == 2
    folded = kernel.host_slowdown() * 2 * reference.NOMINAL_CHUNK_SECONDS
    assert 0 < folded <= min(sum(first), sum(second))
    kernel.segments = [[0.004, 0.009], [0.005, 0.005]]
    assert kernel.host_slowdown() == pytest.approx(0.009 / (2 * reference.NOMINAL_CHUNK_SECONDS))


def test_no_wrapper_outlives_a_round():
    from repro.chain import tx
    from repro.crypto import hashing
    from repro.merkle import iavl

    def installed():
        return (Chain.produce_block, tx.sign_transaction, hashing.keccak, iavl.keccak)

    originals = installed()
    for tracer in (None, trace.Tracer()):
        run.run_round(workloads.WORKLOADS["state_write"], 5000, run.SMOKE_SHRINK, tracer)
        assert all(now is before for now, before in zip(installed(), originals))
    assert not hasattr(Chain.produce_block, "__wrapped__")


def test_an_oracle_failure_is_reported_and_exits_nonzero(monkeypatch, capsys):
    def broken_check(self):
        raise workloads.OracleFailure("value was created")

    monkeypatch.setattr(workloads.StateWrite, "check", broken_check)
    assert run.run_workload("state_write", 5, 0.1, False, "smoke") == 1
    lines = capsys.readouterr().out.splitlines()
    assert json.loads(lines[-1])["correct"] is False
    assert "value was created" in lines[-2]
