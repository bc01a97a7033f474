"""Unit tests for rolling-window SLOs and multi-window burn-rate
alerting: spec validation, burn arithmetic, fire/resolve latching and
the deterministic alert-log serialization."""

import json

import pytest

from repro.health import probes
from repro.health.slo import SloEvaluator, SloSpec, default_slos


def _spec(**overrides):
    base = dict(
        name="test-slo",
        kind=probes.CHAIN_LIVENESS,
        objective=0.75,
        fast_window=30.0,
        slow_window=60.0,
        fast_burn=2.0,
        slow_burn=1.0,
    )
    base.update(overrides)
    return SloSpec(**base)


class TestSloSpec:
    def test_budget_is_one_minus_objective(self):
        assert _spec(objective=0.75).budget == 0.25

    def test_objective_must_be_a_fraction(self):
        with pytest.raises(ValueError):
            _spec(objective=1.0)
        with pytest.raises(ValueError):
            _spec(objective=0.0)

    def test_windows_must_nest(self):
        with pytest.raises(ValueError):
            _spec(fast_window=60.0, slow_window=30.0)
        with pytest.raises(ValueError):
            _spec(fast_window=0.0)

    def test_default_slos_cover_every_probe_kind(self):
        kinds = {spec.kind for spec in default_slos()}
        assert kinds == {
            probes.CHAIN_LIVENESS,
            probes.RELAY_LAG,
            probes.REPLICA_STALENESS,
            probes.GATEWAY,
            probes.MEMPOOL_DEPTH,
            probes.REBALANCER,
        }


def _feed(evaluator, kind, target, healthy_flags, start=0.0, step=5.0):
    """Observe + evaluate one sample per flag; returns all transitions."""
    transitions = []
    now = start
    for healthy in healthy_flags:
        evaluator.observe(now, kind, target, healthy)
        transitions.extend(evaluator.evaluate(now))
        now += step
    return transitions


class TestBurnRateAlerting:
    def test_all_healthy_never_fires(self):
        evaluator = SloEvaluator([_spec()])
        assert _feed(evaluator, probes.CHAIN_LIVENESS, "chain:1", [True] * 30) == []
        assert evaluator.firing() == []

    def test_sustained_badness_fires_once(self):
        evaluator = SloEvaluator([_spec()])
        flags = [True] * 6 + [False] * 8
        transitions = _feed(evaluator, probes.CHAIN_LIVENESS, "chain:1", flags)
        firing = [t for t in transitions if t["state"] == "firing"]
        assert len(firing) == 1  # latched: one transition, not per-tick spam
        alert = firing[0]
        assert alert["slo"] == "test-slo"
        assert alert["target"] == "chain:1"
        assert alert["burn_fast"] >= 2.0
        assert alert["burn_slow"] >= 1.0
        assert evaluator.firing() == [
            {"slo": "test-slo", "target": "chain:1", "severity": "page"}
        ]

    def test_recovery_resolves(self):
        evaluator = SloEvaluator([_spec()])
        flags = [True] * 6 + [False] * 8 + [True] * 12
        transitions = _feed(evaluator, probes.CHAIN_LIVENESS, "chain:1", flags)
        assert [t["state"] for t in transitions] == ["firing", "resolved"]
        assert evaluator.firing() == []

    def test_short_blip_suppressed_by_slow_window(self):
        # Two bad samples spike the fast burn but not the slow one.
        evaluator = SloEvaluator([_spec()])
        flags = [True] * 10 + [False] * 2 + [True] * 10
        assert _feed(evaluator, probes.CHAIN_LIVENESS, "chain:1", flags) == []

    def test_series_are_per_target(self):
        evaluator = SloEvaluator([_spec()])
        for i in range(14):
            now = i * 5.0
            evaluator.observe(now, probes.CHAIN_LIVENESS, "chain:1", i < 6)
            evaluator.observe(now, probes.CHAIN_LIVENESS, "chain:2", True)
            evaluator.evaluate(now)
        assert [a["target"] for a in evaluator.alerts] == ["chain:1"]

    def test_kind_mismatch_is_ignored(self):
        evaluator = SloEvaluator([_spec(kind=probes.RELAY_LAG)])
        assert _feed(evaluator, probes.CHAIN_LIVENESS, "chain:1", [False] * 20) == []

    def test_samples_pruned_beyond_slow_window(self):
        evaluator = SloEvaluator([_spec(slow_window=60.0)])
        for i in range(100):
            evaluator.observe(i * 5.0, probes.CHAIN_LIVENESS, "chain:1", True)
        (series,) = evaluator._series.values()
        assert series.samples[0][0] >= 99 * 5.0 - 60.0


class TestAlertLogSerialization:
    def test_log_is_canonical_json_lines(self):
        evaluator = SloEvaluator([_spec()])
        _feed(evaluator, probes.CHAIN_LIVENESS, "chain:1", [True] * 6 + [False] * 8)
        text = evaluator.alert_log_json()
        assert text.endswith("\n")
        (line,) = text.splitlines()
        entry = json.loads(line)
        assert entry["state"] == "firing"
        # canonical: sorted keys, compact separators
        assert line == json.dumps(entry, sort_keys=True, separators=(",", ":"))

    def test_empty_log_serializes_empty(self):
        assert SloEvaluator([_spec()]).alert_log_json() == ""

    def test_identical_feeds_give_identical_bytes(self):
        logs = set()
        for _ in range(2):
            evaluator = SloEvaluator([_spec()])
            flags = [True] * 6 + [False] * 9 + [True] * 10
            _feed(evaluator, probes.CHAIN_LIVENESS, "chain:1", flags)
            logs.add(evaluator.alert_log_json())
        assert len(logs) == 1
