"""A node: chains + light clients + header relays on one simulated clock.

This is the one place a deployment is assembled.  A node builds its
chains from :class:`~repro.chain.params.ChainParams`, meshes their
header relays so any chain can verify any peer's Move2 proofs, and
drives block production off the shared discrete-event simulator.  The
paper's two deployments are both nodes: N Tendermint shards on an
emulated WAN (:class:`~repro.sharding.cluster.ShardedCluster`, §VII)
and a Burrow↔Ethereum pair (:class:`~repro.ibc.scenarios.IBCExperiment`,
§VIII); so is the chaos world (:mod:`repro.faults.chaos`).  The *front
door* half — admission, batching, backpressure — lives in
:mod:`repro.gateway` and talks to the node only through the narrow
surface defined here (``submit`` / ``receipt`` / ``subscribe`` /
``run_until``), which is also what keeps gateway-routed workloads
byte-identical to direct mempool submission.

Two block-production drivers:

* ``"timer"`` (default) — each chain commits a block every
  ``block_interval`` simulated seconds, deterministically.  This is the
  servable-system equivalent of the lockstep ``produce_block`` loops
  the benchmarks use, so results are directly comparable.  Each
  chain's timer is one :meth:`~repro.net.sim.Simulator.every` loop,
  which ``stop()`` cancels: a stopped node leaves no tick pending;
* ``"consensus"`` — each chain runs its flavour's engine over the
  simulated WAN, ``params.validator_count`` validators (or miners) in
  randomly drawn regions: Tendermint vote rounds for ``burrow``,
  proof-of-work mining for ``ethereum``.  Block cadence then includes
  quorum latency or mining variance.

Every peer observes every source through the same linked header store
(see :func:`~repro.ibc.headers.connect_chains`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.chain.chain import Chain
from repro.chain.params import ChainParams
from repro.chain.tx import Transaction
from repro.consensus.pow import PowEngine
from repro.consensus.tendermint import TendermintEngine
from repro.core.registry import ChainRegistry
from repro.errors import ConfigError, UnknownChainError
from repro.ibc.headers import HeaderRelay, connect_chains
from repro.net.sim import EventHandle, Simulator
from repro.net.transport import Network
from repro.statedb.receipts import Receipt
from repro.telemetry import Telemetry

#: block-production drivers a node can run
DRIVERS = ("timer", "consensus")

#: the consensus engine each chain flavour runs under ``"consensus"``
ENGINES = {"burrow": TendermintEngine, "ethereum": PowEngine}

#: sentinel distinguishing "build a default manager" from "detach"
_BUILD = object()


class Node:
    """One runtime serving a set of chains from a shared simulator."""

    def __init__(
        self,
        params: Union[ChainParams, Sequence[ChainParams]],
        seed: int = 0,
        driver: str = "timer",
        telemetry: Optional[Telemetry] = None,
        verify_signatures: bool = True,
        relay_delay: float = 0.0,
    ):
        if isinstance(params, ChainParams):
            params = [params]
        params = list(params)
        if not params:
            raise ConfigError("a node must serve at least one chain")
        if driver not in DRIVERS:
            raise ConfigError(f"driver must be one of {DRIVERS}, got {driver!r}")
        seen = set()
        for p in params:
            if p.chain_id in seen:
                raise ConfigError(f"duplicate chain_id {p.chain_id} in node params")
            seen.add(p.chain_id)
        self.driver = driver
        self.sim = Simulator(seed=seed)
        self.telemetry = telemetry if telemetry is not None else Telemetry.disabled()
        self.telemetry.bind_clock(lambda: self.sim.now)
        self.registry = ChainRegistry()
        self.chains: Dict[int, Chain] = {}
        for p in params:
            self.chains[p.chain_id] = Chain(
                p,
                self.registry,
                verify_signatures=verify_signatures,
                telemetry=self.telemetry,
            )
        self.relays: List[HeaderRelay] = connect_chains(
            self.chains.values(), sim=self.sim, delay=relay_delay
        )
        self.network: Optional[Network] = None
        self.engines: List = []
        if driver == "consensus":
            self.network = Network(self.sim)
            for chain in self.chains.values():
                regions = self.network.latency.assign_regions(
                    chain.params.validator_count, self.sim.rng
                )
                engine = ENGINES[chain.params.flavor]
                self.engines.append(engine(self.sim, self.network, chain, regions))
        #: one block timer per chain while running (empty under
        #: ``"consensus"``); None while stopped
        self._timers: Optional[List[EventHandle]] = None
        #: hosted services, started and stopped in this order
        self._services = {"rebalancer": None, "replication": None, "health": None}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self.sim.now

    @property
    def running(self) -> bool:
        return self._timers is not None

    def start(self) -> None:
        """Begin block production (idempotent, restart-safe)."""
        if self._timers is not None:
            return
        self._timers = []
        if self.driver == "consensus":
            for engine in self.engines:
                engine.start()
        else:
            for chain in self.chains.values():
                # The block timestamp is read when the timer fires.
                self._timers.append(self.sim.every(
                    chain.params.block_interval,
                    lambda chain=chain: chain.produce_block(
                        self.sim.now, proposer=f"node-{chain.chain_id}"
                    ),
                ))
        for service in self._services.values():
            if service is not None:
                service.start()

    def stop(self) -> None:
        """Halt block production: the block timers are cancelled and
        the hosted services stopped."""
        for timer in self._timers or ():
            timer.cancel()
        self._timers = None
        for service in self._services.values():
            if service is not None:
                service.stop()
        for engine in self.engines:
            engine.stop()

    def _host(self, slot: str, service):
        """Put ``service`` in ``slot``: stop the one it replaces, and
        start it if block production is running."""
        old = self._services[slot]
        if old is not None and old is not service:
            old.stop()
        self._services[slot] = service
        if service is not None and self.running:
            service.start()
        return service

    @property
    def rebalancer(self):
        """The attached :class:`~repro.rebalance.rebalancer.Rebalancer`,
        if any."""
        return self._services["rebalancer"]

    def attach_rebalancer(self, rebalancer) -> None:
        """Host a rebalancing control loop: it starts and stops with
        block production.  Attaching while running starts it at once;
        attaching None detaches (stopping the old one)."""
        self._host("rebalancer", rebalancer)

    @property
    def replication(self):
        """The attached
        :class:`~repro.replicate.manager.ReplicationManager`, if any."""
        return self._services["replication"]

    def attach_replication(self, manager=_BUILD):
        """Host a replication manager: its relays start and stop with
        block production.  With no argument, the existing manager is
        returned (a fresh
        :class:`~repro.replicate.manager.ReplicationManager` is built
        over this node on first use); attaching None detaches, stopping
        the old one.  Returns the attached manager."""
        if manager is _BUILD:
            if self.replication is not None:
                return self.replication
            from repro.replicate.manager import ReplicationManager

            manager = ReplicationManager(self)
        return self._host("replication", manager)

    @property
    def health(self):
        """The attached :class:`~repro.health.monitor.HealthMonitor`,
        if any."""
        return self._services["health"]

    def attach_health(self, monitor=_BUILD):
        """Host a health monitor: it samples while block production
        runs.  With no argument, the existing monitor is returned (a
        stock :meth:`~repro.health.monitor.HealthMonitor.for_node`
        monitor is built on first use); attaching None detaches,
        stopping the old one.  Returns the attached monitor."""
        if monitor is _BUILD:
            if self.health is not None:
                return self.health
            from repro.health.monitor import HealthMonitor

            monitor = HealthMonitor.for_node(self)
        return self._host("health", monitor)

    def serve(self, replicas: int = 1, limits=None):
        """Stand up a :class:`~repro.gateway.gateway.Gateway` with
        ``replicas`` client-pinned queue sets over this node and return
        it, not yet started — call ``.start()`` (which starts this node
        too) when the experiment begins.
        """
        from repro.gateway.gateway import Gateway

        return Gateway(self, limits=limits, replicas=replicas)

    def run(self, until: Optional[float] = None) -> int:
        """Advance the simulator (see :meth:`Simulator.run`)."""
        return self.sim.run(until=until)

    def run_for(self, seconds: float) -> int:
        """Advance the simulator by ``seconds`` from now."""
        return self.sim.run(until=self.sim.now + seconds)

    def run_until(
        self,
        predicate: Callable[[], bool],
        max_time: Optional[float] = None,
        max_events: int = 10_000_000,
    ) -> bool:
        """Step events until ``predicate()`` is true, the queue drains,
        ``max_time`` is reached, or ``max_events`` fire.  Returns the
        final value of the predicate — the building block behind
        "await this handle" on a discrete-event clock."""
        fired = 0
        while not predicate():
            if max_time is not None and self.sim.now >= max_time:
                break
            if fired >= max_events:
                break
            if self.sim.run(max_events=1) == 0:
                break
            fired += 1
        return predicate()

    # ------------------------------------------------------------------
    # Submission / query surface (what the gateway builds on)
    # ------------------------------------------------------------------

    def chain(self, chain_id: int) -> Chain:
        """The served chain with this id (:class:`UnknownChainError` if
        the node does not serve it)."""
        try:
            return self.chains[chain_id]
        except KeyError:
            raise UnknownChainError(
                f"this node serves chains {sorted(self.chains)}, not {chain_id}"
            ) from None

    def submit(self, chain_id: int, tx: Transaction) -> bool:
        """Queue a transaction into a chain's mempool (False = duplicate)."""
        return self.chain(chain_id).submit(tx)

    def receipt(self, chain_id: int, tx_id: str) -> Optional[Receipt]:
        """The execution receipt, or None while still pending."""
        return self.chain(chain_id).receipts.get(tx_id)

    def view(self, chain_id: int, target, method: str, *args):
        """Read-only contract query at a chain's current head."""
        return self.chain(chain_id).view(target, method, *args)

    def apply_faults(self, plan):
        """Attach a :class:`~repro.faults.injector.FaultInjector` and
        schedule ``plan`` against this node's seams (chains, relays and
        — when running consensus — validators and the vote transport).
        The injector's dice are seeded from ``plan.seed``.  Returns the
        injector for inspection."""
        from repro.faults.injector import FaultInjector

        injector = FaultInjector(
            self.sim,
            network=self.network,
            chains=self.chains,
            engines={engine.chain.chain_id: engine for engine in self.engines},
            relays={relay.source.chain_id: relay for relay in self.relays},
            seed=plan.seed,
        )
        injector.apply(plan)
        return injector
