"""Experiment workloads.

:mod:`repro.workload.clients` implements the SCoin closed-loop client
population of Section VII-B (Figs. 6 and 7): per-shard client pools
issuing token transfers, a controllable cross-shard transaction rate,
an oracle mode that never conflicts (the paper's main experiments) and
a retry mode with randomized backoff (Section VII-B.1).

:mod:`repro.workload.fleet` is the one open-loop driver: Poisson
transfer arrivals from a client population through a gateway fleet,
behind ``python -m repro gateway``, the serving benchmark and the
saturation ablation.

Both report latencies through one :class:`LatencySampler`.
"""

from repro.workload.clients import LatencySampler, ScoinWorkload, WorkloadReport
from repro.workload.fleet import FleetWorkload, FleetWorkloadReport

__all__ = [
    "LatencySampler",
    "ScoinWorkload",
    "WorkloadReport",
    "FleetWorkload",
    "FleetWorkloadReport",
]
