"""Autonomous Move-based rebalancing: the paper's future work, closed.

The conclusion of *Smart Contracts on the Move* names "decentralized
load balancing smart contracts for sharded blockchains" as the
application the Move primitive enables.  This package is that control
plane, split into the three layers docs/REBALANCING.md describes:

* **signals** (:mod:`repro.rebalance.signals`) — a
  :class:`SignalPlane` composes two public inputs into
  :class:`ShardLoadView` snapshots: block-fill utilization per shard
  (:class:`ShardLoadMonitor`) and per-contract tx/gas demand
  (:class:`ContractHotnessSignal`, which attributes each transaction
  through :func:`repro.chain.tx.named_contract`);
* **policy** (:mod:`repro.rebalance.policy`) — the
  :class:`RebalancePolicy` engine: hysteresis (enter/exit thresholds),
  per-contract and per-shard cooldown windows, hotness ranking and
  in-flight-move accounting, with the deterministic owner-keyed
  tiebreak that keeps the scheme decentralized — the only policy that
  places contracts by load;
* **actuation** (:mod:`repro.rebalance.rebalancer`) — the
  :class:`Rebalancer` driver: watches signals on the simulated clock,
  issues Moves through an actuator callable, and records
  ``rebalance.*`` traces and ``rebalance_*`` metrics.

``benchmarks/bench_ablation_rebalance.py`` closes the loop end to end:
on a skewed SCoin workload, auto-rebalancing beats static hash
partitioning on both throughput and p99 latency without thrashing.
"""

from repro.rebalance.policy import MoveDecision, RebalancePolicy
from repro.rebalance.rebalancer import Rebalancer, replication_actuator
from repro.rebalance.signals import (
    UTILIZATION_WEIGHT,
    ContractHotnessSignal,
    ShardLoad,
    ShardLoadMonitor,
    ShardLoadView,
    SignalPlane,
)

__all__ = [
    "ShardLoad",
    "ShardLoadView",
    "SignalPlane",
    "UTILIZATION_WEIGHT",
    "ShardLoadMonitor",
    "ContractHotnessSignal",
    "MoveDecision",
    "RebalancePolicy",
    "Rebalancer",
    "replication_actuator",
]
