"""Seeded chaos runs: random faults over real Move workloads.

``run_chaos(seed)`` builds a small two-chain deployment (plus an
optional PoW bystander whose headers reorg) as one
:class:`~repro.node.Node`, runs the SCoin or ScalableKitties workload
over it while the node's :class:`FaultInjector` executes
``FaultPlan.from_seed(seed)``, and keeps an
:class:`~repro.faults.invariants.InvariantChecker` attached so every
block of every chain re-proves the paper's safety properties.

The design target is FoundationDB-style *deterministic* simulation
testing: everything stochastic — consensus timing, network latency,
fault timing, fault dice, workload choices — derives from ``seed``, so
a violation report is fully reproduced by re-running the same call.
Liveness is intentionally not asserted here (a partition or withheld
relay may stall moves for its whole window); what chaos runs establish
is that no fault schedule the plan generator emits can make the system
*unsafe*.

The world (a node under the ``"consensus"`` driver):

* chains 1 and 2: Burrow/Tendermint, four validators each (quorum 3,
  so every single-validator fault is survivable), 5 s blocks;
* optional chain 3 (``pow_peer=True``): Ethereum-flavoured PoW
  bystander with four miners, observed by the others — the target of
  ``reorg`` and the reason their light clients must track branches;
* header relays with a small simulated delay, one per source chain, so
  withhold/stale faults have a real seam to grab;
* a handful of closed-loop actors moving their contracts back and
  forth between chains 1 and 2, transferring tokens (SCoin) or breeding
  cats (ScalableKitties) whenever co-located, with Move2 retried on
  stale-view failures exactly like a real relayer client would.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.apps.kitties import KittyRegistry, breed
from repro.apps.scoin import open_accounts
from repro.chain.chain import client_submit
from repro.chain.params import burrow_params, ethereum_params
from repro.chain.tx import CallPayload, DeployPayload, sign_transaction
from repro.crypto.keys import Address, KeyPair
from repro.faults.invariants import InvariantChecker
from repro.faults.plan import FaultPlan
from repro.ibc.bridge import MovePhases, drive_move
from repro.node import Node
from repro.telemetry import Telemetry

#: chains the workload actually moves contracts between
WORKLOAD_CHAINS = (1, 2)
#: id of the optional PoW bystander
POW_CHAIN = 3
#: one-way client-to-chain submission latency
SUBMIT_LATENCY = 0.1
#: simulated header-relay delay (gives withhold/stale faults a seam)
RELAY_DELAY = 0.2
#: Move2 retry backoff and cap: a stale target view (withheld or lagging
#: relay) clears once headers flow again; a permanently replaced root
#: (deep reorg) never does, so the client eventually gives up with the
#: contract parked in its locked source copy — safe, just not moved.
MOVE2_RETRY_DELAY = 10.0
MOVE2_MAX_RETRIES = 12


@dataclass
class ChaosReport:
    """Everything a chaos run observed — safety counters included."""

    seed: int
    duration: float
    workload: str
    plan_counts: Dict[str, int] = field(default_factory=dict)
    injected: Dict[str, int] = field(default_factory=dict)
    blocks: Dict[int, int] = field(default_factory=dict)
    moves_started: int = 0
    moves_completed: int = 0
    moves_abandoned: int = 0
    move2_retries: int = 0
    actions_completed: int = 0  # transfers (SCoin) / births (kitties)
    actions_failed: int = 0
    invariant_checks: int = 0
    #: final committed state root per chain (hex) — lets determinism
    #: harnesses compare whole runs without holding the worlds alive
    final_roots: Dict[int, str] = field(default_factory=dict)
    #: competing headers observers stored at an occupied height
    equivocations_rejected: int = 0
    deep_reorgs_detected: int = 0
    messages_dropped: int = 0
    messages_duplicated: int = 0
    # replication (``replicate=True`` runs only)
    replica_updates: int = 0
    replica_halts: int = 0
    replica_tombstones: int = 0
    replica_rehomes: int = 0
    replica_checks: int = 0
    # health plane (``health=True`` runs only) — the log and bundle are
    # canonical JSON strings so replay harnesses can compare runs
    # byte-for-byte
    alerts_fired: int = 0
    health_transitions: int = 0
    health_postmortems: int = 0
    health_states: Dict[str, str] = field(default_factory=dict)
    alert_log: str = ""
    postmortem_bundle: str = ""


@dataclass
class _Actor:
    keypair: KeyPair
    contract: Optional[Address] = None
    location: int = 1
    busy: bool = False
    # kitties: the actor's second (stationary) cat on chain 1
    partner: Optional[Address] = None


class ChaosWorld:
    """The workload harness a chaos run executes in, over one node.

    The world holds its :class:`~repro.node.Node` rather than being
    one: its ``submit`` takes a receipt callback and adds client
    latency, which ``Node.submit`` does not."""

    def __init__(
        self,
        seed: int,
        pow_peer: bool = False,
        actors: int = 3,
        telemetry: Optional[Telemetry] = None,
    ):
        self.seed = seed
        params = [
            burrow_params(chain_id, validator_count=4) for chain_id in WORKLOAD_CHAINS
        ]
        if pow_peer:
            params.append(ethereum_params(POW_CHAIN, validator_count=4))
        self.node = Node(
            params,
            seed=seed,
            driver="consensus",
            telemetry=telemetry,
            verify_signatures=False,
            relay_delay=RELAY_DELAY,
        )
        self.sim = self.node.sim
        self.telemetry = self.node.telemetry
        self.chains = self.node.chains
        self.rng = random.Random(seed ^ 0xC4A05)
        self.actors = [
            _Actor(keypair=KeyPair.from_name(f"chaos-{seed}-actor-{i}"))
            for i in range(actors)
        ]
        #: contracts the workload deploys but never moves (token,
        #: registry, partner cats) — replication targets under chaos
        self.stationary: List[Address] = []
        self.owner = KeyPair.from_name(f"chaos-{seed}-owner")
        funds = {kp.address: 10**12 for kp in [self.owner] + [a.keypair for a in self.actors]}
        for chain in self.chains.values():
            chain.fund(funds)
        self.report: Optional[ChaosReport] = None
        self.deadline = 0.0

    # ------------------------------------------------------------------
    # Generic plumbing
    # ------------------------------------------------------------------

    def submit(self, chain_id: int, tx, on_receipt, _on_reject=None) -> None:
        """Hand ``tx`` to a chain's mempool after client-side latency;
        ``on_receipt(receipt)`` fires on inclusion."""
        client_submit(self.sim, self.chains[chain_id], tx, on_receipt, SUBMIT_LATENCY)

    def count(self, receipt) -> None:
        """Count one workload action (a transfer or a birth)."""
        if receipt.success:
            self.report.actions_completed += 1
        else:
            self.report.actions_failed += 1

    def run_tx(self, chain_id: int, keypair: KeyPair, payload, callback) -> None:
        """Sign, submit and invoke ``callback(receipt)`` on inclusion."""
        self.submit(chain_id, sign_transaction(keypair, payload), callback)

    def move(
        self,
        actor: _Actor,
        target_id: int,
        on_done: Callable[[bool], None],
    ) -> None:
        """Move the actor's contract to ``target_id``; ``on_done(ok)``.
        The shared driver, with the Move2 retry a real relayer client
        has and no completion stage (actors act on their own clock)."""
        self.report.moves_started += 1
        actor.busy = True
        phases = MovePhases(actor.contract, actor.location, target_id, self.sim.now)

        def retry(attempt: int) -> Optional[float]:
            if attempt >= MOVE2_MAX_RETRIES or self.sim.now >= self.deadline:
                return None
            self.report.move2_retries += 1
            return MOVE2_RETRY_DELAY

        def done(_rejection) -> None:
            actor.busy = False
            if phases.success:
                actor.location = target_id
                self.report.moves_completed += 1
            else:
                self.report.moves_abandoned += 1
            on_done(phases.success)

        drive_move(
            self.sim,
            self.telemetry.tracer,
            self.chains[actor.location],
            actor.keypair,
            phases,
            self.submit,
            done,
            completions=None,
            move2_retry=retry,
        )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


def _scoin_setup(world: ChaosWorld, on_ready: Callable[[int], None]) -> None:
    """Deploy SCoin on chain 1, one SAccount per actor, mint tokens.

    ``on_ready(total_supply)`` fires once every account holds tokens.
    """
    tokens_each = 1000
    home = WORKLOAD_CHAINS[0]

    def ready(token: Address, accounts: List[Address]) -> None:
        world.stationary.append(token)
        for actor, account in zip(world.actors, accounts):
            actor.contract = account
            actor.location = home
        on_ready(tokens_each * len(accounts))

    holders = [actor.keypair for actor in world.actors]
    open_accounts(world.submit, home, world.owner, holders, tokens_each, ready)


def _scoin_step(world: ChaosWorld, actor: _Actor) -> None:
    """One closed-loop op: transfer to a co-located sibling if there is
    one (exercising supply conservation), else hop to the other chain."""
    if world.sim.now >= world.deadline or actor.busy:
        return

    def next_step(_ok=None) -> None:
        world.sim.schedule(world.rng.uniform(1.0, 5.0), _scoin_step, world, actor)

    siblings = [
        a
        for a in world.actors
        if a is not actor and not a.busy and a.location == actor.location
    ]
    if siblings and world.rng.random() < 0.5:
        target = world.rng.choice(siblings)

        def after(receipt) -> None:
            world.count(receipt)
            next_step()

        world.run_tx(
            actor.location,
            actor.keypair,
            CallPayload(actor.contract, "transfer_tokens", (target.contract, 1)),
            after,
        )
        return
    destination = WORKLOAD_CHAINS[1] if actor.location == WORKLOAD_CHAINS[0] else WORKLOAD_CHAINS[0]
    world.move(actor, destination, next_step)


def _kitties_setup(world: ChaosWorld, on_ready: Callable[[int], None]) -> None:
    """Registry + two gen-0 cats per actor on chain 1: one stationary
    partner, one roaming cat that moves between the chains."""
    home = WORKLOAD_CHAINS[0]
    pending = [2 * len(world.actors)]

    def after_deploy(receipt) -> None:
        assert receipt.success, receipt.error
        registry = receipt.return_value
        world.stationary.append(registry)
        for actor in world.actors:
            for which in ("roamer", "partner"):
                world.run_tx(
                    home,
                    world.owner,
                    CallPayload(registry, "create_promo_kitty", (actor.keypair.address,)),
                    lambda r, a=actor, w=which: after_cat(a, w, r),
                )

    def after_cat(actor: _Actor, which: str, receipt) -> None:
        assert receipt.success, receipt.error
        if which == "roamer":
            actor.contract = receipt.return_value
            actor.location = home
        else:
            actor.partner = receipt.return_value
        pending[0] -= 1
        if pending[0] == 0:
            on_ready(0)

    world.run_tx(
        home, world.owner, DeployPayload(code_hash=KittyRegistry.CODE_HASH), after_deploy
    )


def _kitties_step(world: ChaosWorld, actor: _Actor) -> None:
    """One closed-loop op: at home, breed the roamer with its partner
    (breed + give_birth = one new movable contract); then hop away and
    back — Fig. 5's move-to-breed choreography under faults."""
    if world.sim.now >= world.deadline or actor.busy:
        return
    home = WORKLOAD_CHAINS[0]

    def next_step(_ok=None) -> None:
        world.sim.schedule(world.rng.uniform(1.0, 5.0), _kitties_step, world, actor)

    if actor.location != home:
        world.move(actor, home, next_step)
        return

    def barren(receipt) -> None:
        world.count(receipt)
        next_step()

    def born(receipt) -> None:
        world.count(receipt)
        # Hop to the other chain and come back for the next litter.
        world.move(actor, WORKLOAD_CHAINS[1], next_step)

    breed(world.submit, home, actor.keypair, actor.contract, actor.partner, born, barren)


_WORKLOADS = {
    "scoin": (_scoin_setup, _scoin_step),
    "kitties": (_kitties_setup, _kitties_step),
}


# ----------------------------------------------------------------------
# Replication under chaos (``run_chaos(..., replicate=True)``)
# ----------------------------------------------------------------------


def _check_replicas(world: ChaosWorld, manager) -> None:
    """The replication safety invariant, asserted at every block:

    a ``LIVE`` mirror (a) was verified against a header that is still on
    the canonical branch of the source as the target sees it, and (b)
    its record on the target serves exactly the storage image the
    source committed at the mirror's synced height — never a fork-only or torn intermediate
    state.  Halted/tombstoned mirrors are unavailable by construction
    (their replicated storage is wiped), so passing here means no
    orphaned state is reachable through any read path.
    """
    from repro.errors import InvariantViolation

    for (source_id, target_id), relay in manager._relays.items():
        source = world.chains[source_id]
        target = world.chains[target_id]
        store = target.light_client.store_for(source_id)
        for contract, mirror in relay.mirrors.items():
            if not mirror.available:
                continue
            world.report.replica_checks += 1
            if mirror.applied_header is not None and not store.is_canonical(
                mirror.applied_header
            ):
                raise InvariantViolation(
                    f"LIVE mirror of {contract} on chain {target_id} rests "
                    f"on an orphaned chain-{source_id} header at height "
                    f"{mirror.applied_header.height}"
                )
            log = source.replication_log(contract)
            if log is not None and log.base_height <= mirror.synced_height <= log.head_height:
                expected = log.image_at(mirror.synced_height)
                record = target.state.contract(contract)
                if record is None or record.storage != expected:
                    raise InvariantViolation(
                        f"mirror of {contract} on chain {target_id} serves "
                        f"a torn image at height {mirror.synced_height}"
                    )


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------


def run_chaos(
    seed: int,
    duration: float = 300.0,
    workload: str = "scoin",
    plan: Optional[FaultPlan] = None,
    intensity: float = 1.0,
    pow_peer: bool = False,
    telemetry: Optional[Telemetry] = None,
    replicate: bool = False,
    health: bool = False,
    on_monitor: Optional[Callable] = None,
) -> ChaosReport:
    """One fully seeded chaos run; raises
    :class:`~repro.errors.InvariantViolation` on the first unsafe block.

    ``plan`` defaults to ``FaultPlan.from_seed(seed, duration, ...)``
    with reorg faults enabled iff ``pow_peer`` adds the PoW bystander.
    Re-invoking with the same arguments replays the run exactly.

    ``replicate=True`` mirrors every actor contract onto the opposite
    workload chain through a
    :class:`~repro.replicate.manager.ReplicationManager` and re-asserts
    the replication safety invariant (:func:`_check_replicas`) at every
    block: a serving mirror never rests on an orphaned header and never
    serves a torn image — it rolls back with the source or halts.
    Moves then also exercise the tombstone/re-home path under faults.

    ``health=True`` attaches a read-only
    :class:`~repro.health.monitor.HealthMonitor` (chain liveness, relay
    lag, mempool depth, plus replica staleness under ``replicate``);
    the report then carries the deterministic alert log, the final
    health map and the last postmortem bundle as canonical JSON.
    ``on_monitor`` (if given) receives the monitor right after
    construction, so callers keep a handle to it even when an
    invariant violation aborts the run mid-flight.
    """
    if workload not in _WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    setup, step = _WORKLOADS[workload]

    world = ChaosWorld(seed, pow_peer=pow_peer, telemetry=telemetry)
    report = ChaosReport(seed=seed, duration=duration, workload=workload)
    world.report = report
    # Leave a quiescent tail: no new operations in the last 10 %.
    world.deadline = 0.9 * duration

    if plan is None:
        pow_chains = (
            {POW_CHAIN: world.chains[POW_CHAIN].params.confirmation_depth}
            if pow_peer
            else None
        )
        plan = FaultPlan.from_seed(
            seed,
            duration=duration,
            pow_chains=pow_chains,
            intensity=intensity,
        )
    report.plan_counts = plan.counts()

    node = world.node
    checker = InvariantChecker(world.chains.values())
    checker.attach()
    injector = node.apply_faults(plan)

    # Replication and health start here, before the engines (node.start()
    # re-starting them is a no-op), so their first events keep their
    # place in the simulator's same-time order.
    manager = None
    if replicate:
        manager = node.attach_replication()
        manager.start()

        def on_block(_block, _receipts) -> None:
            _check_replicas(world, manager)

        for chain_id in WORKLOAD_CHAINS:
            world.chains[chain_id].subscribe(on_block)

    monitor = None
    if health:
        monitor = node.attach_health()
        checker.on_violation = monitor.on_violation
        injector.observers.append(monitor.on_fault)
        monitor.start()
        if on_monitor is not None:
            on_monitor(monitor)

    def on_ready(total_supply: int) -> None:
        if total_supply:
            checker.expected_token_supply = total_supply
        if manager is not None:
            home, away = WORKLOAD_CHAINS
            # Stationary contracts (token/registry) are the realistic
            # replicas: hot, read-dominated, never moving.  The roaming
            # actor contracts ride along to chaos-test the
            # tombstone-on-move and re-home paths.
            for contract in world.stationary:
                manager.replicate(contract, home, [away])
            for actor in world.actors:
                manager.replicate(actor.contract, home, [away])
        for actor in world.actors:
            step(world, actor)

    node.start()
    setup(world, on_ready)
    world.sim.run(until=duration)
    checker.final_check()
    checker.check_trusted_headers()
    if manager is not None:
        _check_replicas(world, manager)
        report.replica_rehomes = manager.rehomes
        for relay in manager._relays.values():
            report.replica_updates += relay.updates
            report.replica_halts += relay.halts
            report.replica_tombstones += relay.tombstones

    if monitor is not None:
        monitor.stop()
        report.alerts_fired = sum(
            1 for entry in monitor.alert_log() if entry["state"] == "firing"
        )
        report.health_transitions = len(monitor.transitions)
        report.health_postmortems = monitor.recorder.postmortems_written
        report.health_states = monitor.states_text()
        report.alert_log = monitor.alert_log_json()
        report.postmortem_bundle = monitor.last_postmortem_json()
    report.injected = dict(injector.injected)
    report.blocks = {cid: chain.height for cid, chain in world.chains.items()}
    report.final_roots = {
        cid: chain.state.committed_root.hex() for cid, chain in world.chains.items()
    }
    report.invariant_checks = checker.checks_run
    report.messages_dropped = node.network.messages_dropped
    report.messages_duplicated = node.network.messages_duplicated
    for chain in world.chains.values():
        for peer_id in world.chains:
            store = chain.light_client.store_for(peer_id)
            if store is not None:
                report.equivocations_rejected += store.equivocations
                report.deep_reorgs_detected += store.deep_reorgs
    return report
