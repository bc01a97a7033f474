"""The detection-coverage gate: chaos runs with the health plane on.

Three properties over the seed matrix:

1. **Determinism** — two runs of one seed produce a byte-identical
   alert log and postmortem bundle.
2. **No false alarms** — every firing alert in a faulted run is
   attributable to an injected fault whose window (plus grace) covers
   the alert and whose kind can plausibly degrade the alert's target;
   and a fault-free run of the same worlds stays completely silent.
3. **No vacuous silence** — the matrix as a whole detects at least one
   injected fault, and two targeted single-fault scenarios (a long
   header withhold, a quorum-killing double crash) each produce the
   specific alert their fault should cause, with a resolve entry after
   the fault lifts.
"""

import json

import pytest

from repro.chain.params import ethereum_params
from repro.faults.chaos import POW_CHAIN, run_chaos
from repro.faults.plan import FaultEvent, FaultPlan
from repro.health.coverage import detection_coverage

DURATION = 200.0
INTENSITY = 1.5

#: (seed, workload, pow_peer, replicate) — the chaos seed matrix,
#: extended with replication entries so the replica-staleness probe
#: sees real mirrors under fault
SEED_MATRIX = [
    (1, "scoin", False, False),
    (7, "scoin", True, False),
    (11, "kitties", False, False),
    (23, "scoin", False, False),
    (42, "kitties", True, False),
    (5, "scoin", False, True),
    (13, "scoin", True, True),
    (31, "kitties", False, True),
]


def _plan(seed: int, pow_peer: bool) -> FaultPlan:
    """The exact plan ``run_chaos`` would derive — built explicitly so
    the coverage join runs over the same ground truth."""
    pow_chains = (
        {POW_CHAIN: ethereum_params(POW_CHAIN).confirmation_depth}
        if pow_peer
        else None
    )
    return FaultPlan.from_seed(
        seed, duration=DURATION, pow_chains=pow_chains, intensity=INTENSITY
    )


def _run(seed, workload, pow_peer, replicate, plan):
    return run_chaos(
        seed,
        duration=DURATION,
        workload=workload,
        plan=plan,
        intensity=INTENSITY,
        pow_peer=pow_peer,
        replicate=replicate,
        health=True,
    )


def _alerts(report):
    return [json.loads(line) for line in report.alert_log.splitlines()]


class TestDetectionGate:
    @pytest.mark.parametrize("seed,workload,pow_peer,replicate", SEED_MATRIX)
    def test_alerts_attributed_and_replay_byte_identical(
        self, seed, workload, pow_peer, replicate
    ):
        plan = _plan(seed, pow_peer)
        base = _run(seed, workload, pow_peer, replicate, plan)
        replay = _run(seed, workload, pow_peer, replicate, plan)
        assert replay.alert_log == base.alert_log
        assert replay.postmortem_bundle == base.postmortem_bundle
        assert replay.health_states == base.health_states
        coverage = detection_coverage(plan.events, _alerts(base))
        assert coverage.all_alerts_attributed, (
            f"seed {seed}: unattributed firing alerts "
            f"{[_alerts(base)[i] for i in coverage.unattributed]}"
        )

    def test_matrix_detects_at_least_one_fault(self):
        covered = 0
        for seed, workload, pow_peer, replicate in SEED_MATRIX:
            plan = _plan(seed, pow_peer)
            report = _run(seed, workload, pow_peer, replicate, plan)
            covered += len(
                detection_coverage(plan.events, _alerts(report)).covered
            )
        assert covered >= 1

    @pytest.mark.parametrize("seed,workload,pow_peer,replicate", SEED_MATRIX)
    def test_fault_free_worlds_stay_silent(
        self, seed, workload, pow_peer, replicate
    ):
        report = _run(
            seed, workload, pow_peer, replicate, FaultPlan(seed, DURATION)
        )
        assert report.alerts_fired == 0
        assert report.alert_log == ""


class TestTargetedScenarios:
    def test_long_withhold_fires_relay_lag(self):
        # Pause chain 1's header relay for 80 s: its observers' stores
        # stop advancing while the source keeps committing, so the
        # relay-lag SLO must fire — and resolve once headers flow again.
        plan = FaultPlan(
            0,
            DURATION,
            (FaultEvent(50.0, "withhold_headers", chain=1, duration=80.0),),
        )
        report = _run(0, "scoin", False, False, plan)
        alerts = _alerts(report)
        firing = [a for a in alerts if a["state"] == "firing"]
        assert firing, "80 s header withhold produced no alert"
        assert any(
            a["slo"] == "relay-lag" and a["target"].startswith("relay:1->")
            for a in firing
        ), f"no relay-lag alert in {firing}"
        assert any(
            a["state"] == "resolved" and a["slo"] == "relay-lag"
            for a in alerts
        ), "relay-lag alert never resolved after the withhold lifted"
        coverage = detection_coverage(plan.events, alerts)
        assert coverage.covered == (0,)
        assert coverage.all_alerts_attributed
        assert report.postmortem_bundle != ""

    def test_quorum_loss_fires_chain_liveness(self):
        # Crash two of chain 2's four validators at once: Tendermint
        # quorum (3 of 4) is gone, the chain stalls past its budget and
        # chain liveness must page — then resolve after both recover.
        plan = FaultPlan(
            0,
            DURATION,
            (
                FaultEvent(50.0, "crash", chain=2, target="val-2-0", duration=60.0),
                FaultEvent(50.0, "crash", chain=2, target="val-2-1", duration=60.0),
            ),
        )
        report = _run(0, "scoin", False, False, plan)
        alerts = _alerts(report)
        assert any(
            a["state"] == "firing"
            and a["slo"] == "chain-liveness"
            and a["target"] == "chain:2"
            for a in alerts
        ), f"quorum loss did not page chain liveness: {alerts}"
        assert any(
            a["state"] == "resolved" and a["target"] == "chain:2"
            for a in alerts
        ), "chain:2 alert never resolved after recovery"
        assert detection_coverage(plan.events, alerts).all_alerts_attributed
