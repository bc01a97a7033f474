"""The cluster health plane: probes, SLO burn-rate alerting and
flight-recorder postmortems over :mod:`repro.telemetry`.

PR 3 made the system observable (traces + metrics); this package makes
it *judgeable*: typed per-target health states
(:mod:`repro.health.probes`), rolling-window SLOs with multi-window
burn-rate alerting on the simulated clock (:mod:`repro.health.slo`), a
bounded flight recorder that dumps deterministic JSON postmortem
bundles on alerts, invariant violations and injected faults
(:mod:`repro.health.recorder`), and the periodic
:class:`~repro.health.monitor.HealthMonitor` that ties them together —
hosted by :class:`~repro.node.node.Node` via ``attach_health()`` and
by the chaos harness via ``run_chaos(health=True)``.  The join between
injected faults and raised alerts lives in
:mod:`repro.health.coverage` (the CI detection-coverage gate).

Everything is a pure function of the seed: alert logs and postmortem
bundles replay byte-identically.  See ``docs/OBSERVABILITY.md``
("Health, SLOs, and postmortems").
"""

from repro.health.coverage import CoverageReport, detection_coverage, fault_target_prefixes
from repro.health.monitor import HealthMonitor
from repro.health.probes import (
    ChainLivenessProbe,
    GatewayQueueProbe,
    MempoolDepthProbe,
    ProbeSample,
    RebalancerProbe,
    RelayLagProbe,
    ReplicaStalenessProbe,
)
from repro.health.recorder import SNAPSHOT_METRICS, FlightRecorder, bundle_json
from repro.health.slo import SloEvaluator, SloSpec, default_slos

__all__ = [
    "HealthMonitor",
    "SloSpec",
    "SloEvaluator",
    "default_slos",
    "FlightRecorder",
    "SNAPSHOT_METRICS",
    "bundle_json",
    "ProbeSample",
    "ChainLivenessProbe",
    "RelayLagProbe",
    "ReplicaStalenessProbe",
    "GatewayQueueProbe",
    "MempoolDepthProbe",
    "RebalancerProbe",
    "CoverageReport",
    "detection_coverage",
    "fault_target_prefixes",
]
