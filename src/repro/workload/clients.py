"""SCoin closed-loop clients (Section VII-B).

Every client owns one ``SAccount``.  In a closed loop, each client
repeatedly transfers one token to another client's account:

* **single-shard** — the target account lives on the client's shard:
  one transfer transaction;
* **cross-shard** (probability = the experiment's cross-shard rate) —
  the target lives elsewhere: the client first *moves its own account*
  to the target's shard (Move1, wait ``p`` blocks, Move2) and then
  transfers there — exactly the paper's choreography.

Latency is measured from the operation's start to the inclusion of its
final transaction: a single-shard transfer takes about one block
(paper: ≈7 s on 5 s blocks); a cross-shard operation takes about five
(Move1 inclusion + the two-block proof wait + Move2 inclusion + the
transfer — the paper's ≈34 s, "confirming the expected latency of
waiting for five blocks per cross-shard transaction").

Two conflict models (Section VII-B.1):

* **oracle mode** (default) — like the paper's main runs, clients only
  target accounts that are not about to move, so no transaction ever
  aborts; implemented with busy/pinned bookkeeping.
* **retry mode** — clients pick targets blindly; a transfer that hits
  a moved-away account fails and is retried after a uniform backoff of
  0–10 block times.  Retry counts are reported (the paper: 66 % of
  retrying transactions retry once, ~1 % more than three times).
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.apps.scoin import SCoin
from repro.chain.tx import CallPayload, DeployPayload, sign_transaction
from repro.crypto.keys import Address, KeyPair
from repro.ibc.bridge import IBCBridge
from repro.sharding.cluster import ShardedCluster


class LatencySampler:
    """Latency samples, tagged by kind (single-shard / cross-shard, or a
    gateway priority class)."""

    def __init__(self) -> None:
        self._samples: Dict[str, List[float]] = defaultdict(list)

    def add(self, kind: str, latency: float) -> None:
        """Record one latency sample under ``kind``."""
        if latency < 0:
            raise ValueError("negative latency")
        self._samples[kind].append(latency)

    def samples(self, kind: str) -> Sequence[float]:
        """All samples of one kind (empty tuple if none)."""
        return tuple(self._samples.get(kind, ()))

    def all_samples(self) -> Sequence[float]:
        """Samples of every kind combined (the aggregated CDF)."""
        out: List[float] = []
        for values in self._samples.values():
            out.extend(values)
        return tuple(out)

    def kinds(self) -> Sequence[str]:
        """The kinds that have at least one sample."""
        return tuple(self._samples)

    def mean(self, kind: str) -> float:
        """Mean latency of a kind (ValueError when empty)."""
        values = self._samples.get(kind)
        if not values:
            raise ValueError(f"no samples of kind {kind!r}")
        return sum(values) / len(values)


@dataclass
class _Client:
    index: int
    keypair: KeyPair
    account: Optional[Address] = None
    shard: int = 0          # where the account currently lives
    busy: bool = False      # mid-move (oracle mode: not a valid target)
    pins: int = 0           # incoming transfers in flight (oracle mode)
    in_op: bool = False     # closed loop currently running for this client
    think_time: float = 0.0  # pause between ops (skewed-load runs)
    #: (target_shard, done) set by the rebalancing actuator; the client
    #: executes it between ops, once incoming transfers drain
    move_request: Optional[tuple] = None


@dataclass
class WorkloadReport:
    """Everything the Fig. 6/7 harnesses need from one run."""

    num_shards: int
    clients: int
    cross_rate: float
    duration: float
    latency: LatencySampler = field(default_factory=LatencySampler)
    ops_completed: int = 0
    single_shard_ops: int = 0
    cross_shard_ops: int = 0
    failures: int = 0
    retries_per_op: List[int] = field(default_factory=list)

    @property
    def ops_per_second(self) -> float:
        return self.ops_completed / self.duration if self.duration else 0.0

    @property
    def observed_cross_rate(self) -> float:
        total = self.single_shard_ops + self.cross_shard_ops
        return self.cross_shard_ops / total if total else 0.0

    def retry_histogram(self) -> Dict[int, int]:
        """retries -> number of completed ops with that retry count."""
        hist: Dict[int, int] = {}
        for count in self.retries_per_op:
            hist[count] = hist.get(count, 0) + 1
        return hist


class ScoinWorkload:
    """Builds the token world on a cluster and drives the client pool."""

    #: SCoin minted to each client's account during setup
    tokens_per_client = 1_000_000

    def __init__(
        self,
        cluster: ShardedCluster,
        clients_per_shard: int = 250,
        cross_rate: float = 0.1,
        retry_mode: bool = False,
        seed: int = 7,
        hot_shard: Optional[int] = None,
        background_think: float = 0.0,
    ):
        if hot_shard is not None and not 0 <= hot_shard < cluster.num_shards:
            raise ValueError("hot_shard out of range")
        if background_think < 0.0:
            raise ValueError("background_think must be non-negative")
        self.cluster = cluster
        self.cross_rate = cross_rate
        self.retry_mode = retry_mode
        #: skewed-activity mode: clients hash-homed on ``hot_shard``
        #: run flat out while every other client pauses
        #: ``background_think`` seconds between ops — the "one popular
        #: contract community" workload the rebalancing ablation uses.
        self.hot_shard = hot_shard
        self.background_think = background_think
        self.rng = random.Random(seed)
        self.bridge = IBCBridge(cluster.sim, cluster.shards)
        total = clients_per_shard * cluster.num_shards
        self.clients = [
            _Client(index=i, keypair=KeyPair.from_name(f"scoin-client-{i}"))
            for i in range(total)
        ]
        self.token_owner = KeyPair.from_name("scoin-owner")
        self.token: Optional[Address] = None
        self._by_account: Dict[Address, _Client] = {}
        self.report: Optional[WorkloadReport] = None
        self._measuring = False
        self._home = self.cluster.shard(0)

    # ------------------------------------------------------------------
    # Setup: deploy the token, create/mint/place accounts
    # ------------------------------------------------------------------

    def setup(self, on_ready) -> None:
        """Asynchronously build the token world; ``on_ready()`` fires
        when every account sits on its hash-assigned shard."""
        deploy = sign_transaction(self.token_owner, DeployPayload(code_hash=SCoin.CODE_HASH))

        def after_deploy(receipt) -> None:
            assert receipt.success, receipt.error
            self.token = receipt.return_value
            self._create_accounts(on_ready)

        self._home.wait_for(deploy.tx_id, after_deploy)
        self.cluster.submit(0, deploy)

    def _create_accounts(self, on_ready) -> None:
        pending = [len(self.clients)]

        def after_create(client: _Client, receipt) -> None:
            assert receipt.success, receipt.error
            client.account, _salt = receipt.return_value
            self._by_account[client.account] = client
            mint = sign_transaction(
                self.token_owner,
                CallPayload(self.token, "mint_to", (client.account, self.tokens_per_client)),
            )
            self._home.wait_for(mint.tx_id, lambda r: after_mint(client, r))
            self.cluster.submit(0, mint)

        def after_mint(client: _Client, receipt) -> None:
            assert receipt.success, receipt.error
            pending[0] -= 1
            if pending[0] == 0:
                self._place_accounts(on_ready)

        for client in self.clients:
            tx = sign_transaction(
                client.keypair, CallPayload(self.token, "new_account_for", (client.keypair.address,))
            )
            self._home.wait_for(tx.tx_id, lambda r, c=client: after_create(c, r))
            self.cluster.submit(0, tx)

    def _place_accounts(self, on_ready) -> None:
        """Move every account to its hash-partitioned home shard."""
        if self.hot_shard is not None:
            for client in self.clients:
                home = self.cluster.shard_index_of(client.account)
                client.think_time = (
                    0.0 if home == self.hot_shard else self.background_think
                )
        movers = [
            c for c in self.clients if self.cluster.shard_index_of(c.account) != 0
        ]
        for client in self.clients:
            client.shard = 0
        if not movers:
            on_ready()
            return
        pending = [len(movers)]

        def after_move(client: _Client, phases) -> None:
            assert phases.success, phases.error
            client.shard = phases.target_chain - 1
            pending[0] -= 1
            if pending[0] == 0:
                on_ready()

        for client in movers:
            target_index = self.cluster.shard_index_of(client.account)
            self.bridge.move_contract(
                client.keypair,
                client.account,
                source_id=self._home.chain_id,
                target_id=target_index + 1,
                on_done=lambda phases, c=client: after_move(c, phases),
            )

    # ------------------------------------------------------------------
    # Relocation (rebalancing actuation)
    # ------------------------------------------------------------------

    def relocate(self, client_index: int, target_shard: int, on_done=None) -> None:
        """Move one client's account to ``target_shard`` via the full
        Move protocol (the client 'tempted to move to an underused
        shard' of Section IV-B)."""
        client = self.clients[client_index]
        if client.account is None or client.shard == target_shard:
            if on_done is not None:
                on_done(None)
            return
        client.busy = True

        def after(phases) -> None:
            client.busy = False
            if phases.success:
                client.shard = target_shard
            if on_done is not None:
                on_done(phases)

        self.bridge.move_contract(
            client.keypair,
            client.account,
            source_id=client.shard + 1,
            target_id=target_shard + 1,
            on_done=after,
        )

    def relocate_actuator(self):
        """An actuator for :class:`~repro.rebalance.rebalancer
        .Rebalancer` that moves accounts via :meth:`relocate`, keeping
        the client state machine consistent.  A busy (already-moving)
        account fails the decision instead of racing it; an account in
        its closed loop is moved *cooperatively* — a move request is
        parked on the client, new transfers stop targeting it, and the
        client executes the move between ops once its incoming pins
        drain, resuming from the new shard afterwards.  The driver's
        ``move_timeout`` covers a request the loop never reaches."""

        def actuate(decision, done) -> None:
            client = self._by_account.get(decision.contract)
            if client is None or client.busy or client.move_request is not None:
                done(False)
                return

            def on_moved(phases) -> None:
                done(True if phases is None else bool(phases.success))

            if client.in_op:
                client.move_request = (decision.target_shard, on_moved)
            else:
                self.relocate(client.index, decision.target_shard, on_done=on_moved)

        return actuate

    # ------------------------------------------------------------------
    # Measurement phase
    # ------------------------------------------------------------------

    def run(self, duration: float, warmup: float = 0.0) -> WorkloadReport:
        """Block until setup + ``warmup + duration`` simulated seconds
        of closed-loop traffic have elapsed; returns the report."""
        sim = self.cluster.sim
        self.cluster.start()
        ready = [False]
        self.setup(lambda: ready.__setitem__(0, True))
        # Drive the simulator until the world is built.
        while not ready[0]:
            progressed = sim.run(until=sim.now + 10.0)
            if progressed == 0 and not ready[0] and sim.pending() == 0:
                raise RuntimeError("setup stalled")
        start = sim.now + warmup
        end = start + duration
        return self._measure(start, end, duration)

    def measure_again(self, duration: float, warmup: float = 0.0) -> WorkloadReport:
        """Run a further measurement phase on the already-built world
        (e.g. after a rebalancing pass).  Clients whose closed loop is
        still winding down are not double-started."""
        sim = self.cluster.sim
        start = sim.now + warmup
        return self._measure(start, start + duration, duration)

    def _measure(self, start: float, end: float, duration: float) -> WorkloadReport:
        sim = self.cluster.sim
        report = WorkloadReport(
            num_shards=self.cluster.num_shards,
            clients=len(self.clients),
            cross_rate=self.cross_rate,
            duration=duration,
        )
        self.report = report
        self._measure_start = start
        self._measure_end = end
        self._measuring = False
        for client in self.clients:
            if not client.in_op and not client.busy:
                self._start_next_op(client)
        sim.schedule(max(start - sim.now, 0.0), lambda: setattr(self, "_measuring", True))
        sim.run(until=end)
        self._measuring = False
        return report

    # ------------------------------------------------------------------
    # Client state machine
    # ------------------------------------------------------------------

    def _pick_target(self, client: _Client, want_cross: bool) -> Optional[_Client]:
        """Choose a target of the decided kind.

        Rejection-samples from the client pool (bounded attempts) so an
        operation costs O(1) rather than a scan of every client.  In
        oracle mode busy (mid-move) accounts are never chosen — the
        paper's conflict-free main runs.
        """
        for _attempt in range(64):
            other = self.clients[self.rng.randrange(len(self.clients))]
            if other is client or other.account is None:
                continue
            if not self.retry_mode and (
                other.busy or other.move_request is not None
            ):
                # Oracle mode: never target an account that is moving or
                # about to — its pins must drain so the move can start.
                continue
            if want_cross != (other.shard != client.shard):
                continue
            return other
        return None

    def _start_next_op(
        self,
        client: _Client,
        retries: int = 0,
        started: Optional[float] = None,
        want_cross: Optional[bool] = None,
    ) -> None:
        if self.cluster.sim.now >= getattr(self, "_measure_end", float("inf")):
            client.in_op = False
            return
        if client.busy:
            # The account is mid-relocation (e.g. the rebalancer is
            # moving it); starting a transfer from it now would only
            # abort on the locked contract.  Wait the move out.
            self.cluster.sim.schedule(
                1.0, self._start_next_op, client, retries, started, want_cross
            )
            return
        if client.move_request is not None:
            # The rebalancer asked for this account.  Yield the op slot:
            # once the incoming transfers drain (nobody new targets a
            # move-pending account), run the move, then resume the loop
            # from the account's new home.
            if client.pins > 0:
                self.cluster.sim.schedule(1.0, self._start_next_op, client)
                return
            target_shard, on_moved = client.move_request
            client.move_request = None

            def after_move(phases) -> None:
                on_moved(phases)
                self._start_next_op(client)

            self.relocate(client.index, target_shard, on_done=after_move)
            return
        client.in_op = True
        if want_cross is None:
            # Decide the operation kind once; deferrals and target
            # re-picks keep it, so the configured cross-shard rate is
            # honoured (a re-roll on every deferral would bias toward
            # single-shard operations).
            want_cross = (
                self.cluster.num_shards > 1 and self.rng.random() < self.cross_rate
            )
        target = self._pick_target(client, want_cross)
        if target is None:
            # No viable target right now; try again shortly.
            self.cluster.sim.schedule(
                1.0, self._start_next_op, client, retries, started, want_cross
            )
            return
        # Retried operations keep their original start time, so the
        # Fig. 7 (left) latency includes backoff and re-execution.
        started = started if started is not None else self.cluster.sim.now
        if not want_cross:
            self._single_shard_transfer(client, target, started, retries)
        elif not self.retry_mode and client.pins > 0:
            # Oracle mode: this account has incoming transfers in
            # flight, so it must not move now — retry the pick shortly
            # (the pins drain within a block).
            self.cluster.sim.schedule(
                1.0, self._start_next_op, client, retries, started, want_cross
            )
        else:
            self._cross_shard_transfer(client, target, started, retries)

    def _single_shard_transfer(self, client, target, started, retries) -> None:
        target.pins += 1
        tx = sign_transaction(
            client.keypair,
            CallPayload(client.account, "transfer_tokens", (target.account, 1)),
        )

        def after(receipt) -> None:
            if not receipt.success:
                target.pins -= 1
                self._handle_failure(client, retries, started, want_cross=False)
                return
            self._finish_op(client, target, started, "single-shard", retries)

        self.cluster.shard(client.shard).wait_for(tx.tx_id, after)
        self.cluster.submit(client.shard, tx)

    def _cross_shard_transfer(self, client, target, started, retries) -> None:
        client.busy = True
        target.pins += 1
        destination = target.shard

        def completion(mover_kp: KeyPair):
            return sign_transaction(
                mover_kp,
                CallPayload(client.account, "transfer_tokens", (target.account, 1)),
            )

        def after(phases) -> None:
            client.busy = False
            # The account lives wherever the *move* got to, regardless
            # of whether the completion transfer succeeded — otherwise a
            # failed completion leaves the client retrying Move1 from a
            # shard where its account is already locked, forever.
            if phases.move2_included_at is not None:
                client.shard = destination
            if not phases.success:
                target.pins -= 1
                self._handle_failure(client, retries, started, want_cross=True)
                return
            self._finish_op(client, target, started, "cross-shard", retries)

        self.bridge.move_contract(
            client.keypair,
            client.account,
            source_id=client.shard + 1,
            target_id=destination + 1,
            completions=(completion,),
            on_done=after,
        )

    def _finish_op(self, client, target, started, kind, retries) -> None:
        target.pins -= 1
        now = self.cluster.sim.now
        report = self.report
        if report is not None and self._measuring and started >= self._measure_start:
            report.ops_completed += 1
            report.latency.add(kind, now - started)
            if kind == "single-shard":
                report.single_shard_ops += 1
            else:
                report.cross_shard_ops += 1
            report.retries_per_op.append(retries)
        if client.think_time > 0.0:
            self.cluster.sim.schedule(client.think_time, self._start_next_op, client)
        else:
            self._start_next_op(client)

    def _handle_failure(self, client, retries, started, want_cross) -> None:
        report = self.report
        if report is not None and self._measuring:
            report.failures += 1
        if not self.retry_mode:
            # Oracle mode should never conflict; count and move on.
            self._start_next_op(client)
            return
        # Section VII-B.1: wait 0..10 block times before retrying; the
        # retried operation keeps its original start time.
        backoff = self.rng.uniform(0, 10) * self.cluster.shard(0).params.block_interval
        self.cluster.sim.schedule(
            backoff, self._start_next_op, client, retries + 1, started, want_cross
        )
