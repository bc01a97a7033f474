"""The five workloads: world build, measured phase, correctness oracle.

Each workload is a class whose constructor builds a fresh world from a
seed (timed by the runner as set-up), whose :meth:`measure` runs a
fixed amount of work (timed as the measured phase), and whose
:meth:`check` is the correctness oracle (never timed): it raises
:class:`OracleFailure` on wrong outputs and counts operations that
merely failed.  The seed is the
only input that differs between two runs; the code under test receives
nothing but the inputs generated from it.

Everything runs in one process and one thread on Burrow/IAVL chains
with ``executor_workers=0``; only public entry points of ``repro`` are
called.

Sizes are calibrated on the 2-core reference host so one measured
phase takes just under two seconds — the runner repeats whole rounds
(fresh world from the same seed + measured phase) until ``--seconds``
of measured time have accumulated, and folds the repeats slice by
slice.  Short rounds keep a run's cost nearly flat when the host slows
down (fewer rounds fit, so fewer worlds are built), which is what keeps
114 driver runs inside their time budget on a shared machine.
``shrink`` divides every count (clients, accounts, ops, blocks) for
smoke runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List

# sign_transaction and verify_proof are called through their home
# modules, so the traced pass (which rebinds the names there) sees the
# calls this file makes.
import repro.chain.tx as chain_tx
import repro.merkle.proof as merkle_proof
from repro.chain.chain import Chain
from repro.chain.params import burrow_params
from repro.chain.tx import TransferPayload
from repro.crypto.keys import Address, KeyPair
from repro.faults.invariants import InvariantChecker
from repro.gateway import GatewayLimits
from repro.sharding.cluster import ShardedCluster
from repro.traces.cryptokitties import TraceConfig, generate_trace
from repro.traces.events import BREED
from repro.traces.replay import KittiesReplayer
from repro.workload.clients import ScoinWorkload
from repro.workload.fleet import FleetWorkload


class OracleFailure(AssertionError):
    """A workload's outputs are wrong."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise OracleFailure(message)


@dataclass
class Outcome:
    """What one measured phase did, as the oracle counted it."""

    ops: int  # completed ops (the workload's own definition)
    attempted: int
    failed: int
    #: values that must repeat exactly for one seed on one commit
    digests: Dict[str, str] = field(default_factory=dict)


def failed_receipts(chains: List[Chain]) -> int:
    return sum(
        1 for chain in chains for receipt in chain.receipts.values() if not receipt.success
    )


def verify_ledgers(chains: List[Chain]) -> None:
    for chain in chains:
        chain.verify_chain()  # raises StateError on a broken ledger


# ---------------------------------------------------------------------
# fleet_transfers
# ---------------------------------------------------------------------


class FleetTransfers:
    """Open loop on the simulated clock: Poisson arrivals at Zipf rates
    from ``clients`` clients, offered at ~80 % of simulated capacity so
    nothing is shed.  Signed transfers travel ``SimNetTransport`` →
    ``GatewayFleet`` → mempool → ``produce_block`` → commit.  The
    account tree is small (10³ leaves: fits the keccak memo).

    op = confirmed transaction.
    """

    ROUND_SEEDS = 2  # arrivals and block fill differ from seed to seed
    CLIENTS = 1000
    REPLICAS = 4
    TOTAL_RATE = 400.0  # tx per simulated second
    OFFER_SECONDS = 38.0  # simulated
    DRAIN_SECONDS = 20.0  # simulated
    FUNDING = 10**12  # FleetWorkload's per-client genesis balance

    def __init__(self, seed: int, shrink: int = 1):
        self.workload = FleetWorkload(
            clients=max(2, self.CLIENTS // shrink),
            replicas=self.REPLICAS,
            total_rate=self.TOTAL_RATE,
            zipf_s=1.1,
            seed=seed,
            limits=GatewayLimits(max_queue_depth=1024, batch_size=64, flush_interval=0.25),
            block_interval=2.0,
            max_block_txs=1000,
            executor_workers=0,
        )
        # at least four blocks' worth, so even a smoke round has intervals
        self.offer_seconds = max(8.0, self.OFFER_SECONDS / shrink)
        self.chains = [self.workload.node.chain(1)]

    def measure(self) -> None:
        self.report = self.workload.run(
            duration=self.offer_seconds, drain=self.DRAIN_SECONDS
        )

    def check(self) -> Outcome:
        report, chain = self.report, self.chains[0]
        keypairs = self.workload.keypairs
        total = sum(chain.balance_of(kp.address) for kp in keypairs)
        require(
            total == self.FUNDING * len(keypairs),
            f"total balance {total} != {self.FUNDING * len(keypairs)} funded",
        )
        verify_ledgers(self.chains)
        return Outcome(
            ops=report.confirmed,
            attempted=report.submitted,
            failed=report.shed_total + report.unresolved + failed_receipts(self.chains),
            digests={"log_digest": report.log_digest, "final_root": report.final_root},
        )


# ---------------------------------------------------------------------
# kitties_replay
# ---------------------------------------------------------------------


class KittiesReplay:
    """Closed window (250 outstanding per shard): a synthetic
    CryptoKitties trace replayed on two shards until its dependency
    DAG drains (paper Fig. 5).  Contract execution and per-contract
    storage tries dominate; ~6 % of breeds move a cat across shards;
    the gateway is bypassed.

    op = committed trace transaction (Move1 and Move2 included).
    """

    ROUND_SEEDS = 2  # the trace's DAG, and so how blocks fill, differs from seed to seed
    N_OPS = 3_000
    N_PROMO = 375
    N_USERS = 150
    SHARDS = 2
    WINDOW = 250

    def __init__(self, seed: int, shrink: int = 1):
        self.trace = generate_trace(
            TraceConfig(
                n_ops=self.N_OPS // shrink,
                n_promo=max(8, self.N_PROMO // shrink),
                n_users=max(4, self.N_USERS // shrink),
                seed=seed,
            )
        )
        self.cluster = ShardedCluster(
            num_shards=self.SHARDS, seed=seed, max_block_txs=130, executor_workers=0
        )
        self.replayer = KittiesReplayer(
            self.cluster, trace=self.trace, outstanding_limit=self.WINDOW
        )
        self.chains = self.cluster.shards

    def measure(self) -> None:
        self.report = self.replayer.run()

    def check(self) -> Outcome:
        report = self.report
        require(report.finished_at is not None, "dependency DAG did not drain")
        require(
            report.ops_completed == len(self.trace),
            f"{report.ops_completed} of {len(self.trace)} trace ops completed",
        )
        # One transaction per op, two per breed, two more per move.
        breeds = sum(1 for op in self.trace if op.kind == BREED)
        expected = len(self.trace) + breeds + 2 * report.cross_shard_ops
        require(
            report.txs_committed == expected,
            f"{report.txs_committed} transactions committed, trace implies {expected}",
        )
        verify_ledgers(self.chains)
        return Outcome(
            ops=report.txs_committed,
            attempted=report.txs_committed,
            failed=report.failed_txs,
            digests={
                shard.params.name: shard.head.header.state_root.hex()
                for shard in self.chains
            },
        )


# ---------------------------------------------------------------------
# scoin_moves
# ---------------------------------------------------------------------


class ScoinMoves:
    """Closed loop, 100 clients per shard on four shards, 30 % of ops
    cross-shard (paper Fig. 6 at its harshest rate): Move1 → p-block
    wait → Move2 → transfer.  The only workload where the Move
    protocol, light clients, the bridge and Tendermint traffic are
    large.

    op = completed client operation.
    """

    ROUND_SEEDS = 2  # ops completed in the simulated window differ ±5 % from seed to seed
    SHARDS = 4
    CLIENTS_PER_SHARD = 100
    CROSS_RATE = 0.30
    WARMUP_SECONDS = 40.0  # simulated; part of the measured phase, ops not counted
    MEASURE_SECONDS = 100.0  # simulated
    SETTLE_SECONDS = 120.0  # simulated; lets in-flight moves land before the oracle

    def __init__(self, seed: int, shrink: int = 1):
        self.cluster = ShardedCluster(
            num_shards=self.SHARDS, seed=seed, executor_workers=0
        )
        self.workload = ScoinWorkload(
            self.cluster,
            clients_per_shard=max(2, self.CLIENTS_PER_SHARD // shrink),
            cross_rate=self.CROSS_RATE,
            seed=seed,
        )
        self.chains = self.cluster.shards
        self.measure_seconds = max(40.0, self.MEASURE_SECONDS / shrink)
        self.cluster.start()
        ready: List[bool] = []
        self.workload.setup(lambda: ready.append(True))
        sim = self.cluster.sim
        while not ready:
            if sim.run(until=sim.now + 10.0) == 0 and sim.pending() == 0:
                raise OracleFailure("SCoin world build stalled")

    def measure(self) -> None:
        self.report = self.workload.measure_again(
            self.measure_seconds, warmup=self.WARMUP_SECONDS
        )

    def check(self) -> Outcome:
        report, workload = self.report, self.workload
        self.cluster.run(until=self.cluster.sim.now + self.SETTLE_SECONDS)
        minted = workload.tokens_per_client * len(workload.clients)
        # I1 (at most one active copy), I2, I3 (token supply == minted),
        # I4 (every leaf recommits) and each ledger's self-audit.
        InvariantChecker(self.chains, expected_token_supply=minted).final_check()
        for client in workload.clients:
            active = [
                shard.chain_id
                for shard in self.chains
                if shard.location_of(client.account) == shard.chain_id
            ]
            require(
                len(active) == 1,
                f"account {client.account} is active on chains {active}, want exactly one",
            )
        return Outcome(
            ops=report.ops_completed,
            attempted=report.ops_completed + report.failures,
            failed=report.failures,
            digests={
                "cross_shard_ops": str(report.cross_shard_ops),
                "blocks": str(self.cluster.total_blocks),
            },
        )


# ---------------------------------------------------------------------
# state_write / state_read
# ---------------------------------------------------------------------


class _StateWorld:
    """One Burrow chain with ``ACCOUNTS`` funded synthetic accounts, so
    the account tree is deep and every commit hashes nodes the keccak
    memo has never seen.  Set-up (populate + initial commit) is the
    bulk-build cost.
    """

    #: every block is the same work on uniformly random accounts, so a
    #: second seed adds nothing and all rounds repeat one (a better fold)
    ROUND_SEEDS = 1
    ACCOUNTS = 20_000
    SENDERS = 64
    BLOCK_SECONDS = 2.0  # simulated timestamp step

    def __init__(self, seed: int, shrink: int = 1):
        self.rng = random.Random(seed)
        self.chain = Chain(
            burrow_params(1, max_block_txs=500, executor_workers=0),
            verify_signatures=False,
        )
        self.chains = [self.chain]
        self.senders = [KeyPair.from_name(f"state-sender-{i}") for i in range(self.SENDERS)]
        self.accounts = [
            Address(self.rng.randbytes(20)) for _ in range(self.ACCOUNTS // shrink)
        ]
        self.funded = {address: 10**9 for address in self.accounts}
        self.funded.update({kp.address: 10**12 for kp in self.senders})
        self.chain.fund(self.funded)
        self.nonce = 0
        self.clock = 0.0

    def transfer_block(self, transfers: int) -> None:
        """Sign, submit and commit one block of random transfers."""
        rng, chain, senders, accounts = self.rng, self.chain, self.senders, self.accounts
        for _ in range(transfers):
            self.nonce += 1
            tx = chain_tx.sign_transaction(
                senders[rng.randrange(len(senders))],
                TransferPayload(to=accounts[rng.randrange(len(accounts))], amount=1),
                nonce=self.nonce,
            )
            chain.submit(tx)
        self.clock += self.BLOCK_SECONDS
        chain.produce_block(self.clock)

    def check_state(self, transfers: int) -> int:
        """Shared oracle: one receipt per transfer, value conserved,
        sampled proofs recompute the committed root, ledger intact.
        Returns the number of failed receipts."""
        chain = self.chain
        require(
            len(chain.receipts) == transfers,
            f"{len(chain.receipts)} receipts for {transfers} transfers",
        )
        total = sum(chain.balance_of(address) for address in self.funded)
        require(
            total == sum(self.funded.values()),
            f"total balance {total} != {sum(self.funded.values())} funded",
        )
        root = chain.state.committed_root
        for address in self.rng.sample(self.accounts, min(256, len(self.accounts))):
            require(
                merkle_proof.verify_proof(chain.state.prove_account(address), root),
                f"proof of {address} does not recompute the committed root",
            )
        verify_ledgers(self.chains)
        return failed_receipts(self.chains)


class StateWrite(_StateWorld):
    """Closed, single driver: blocks of 200 signed transfers from 64
    senders to uniformly random accounts, ``submit`` + ``produce_block``.
    Deep-tree incremental commit: ``merkle``/``statedb`` do most of the
    work.

    op = committed transaction.
    """

    BLOCKS = 50
    TXS_PER_BLOCK = 200

    def __init__(self, seed: int, shrink: int = 1):
        super().__init__(seed, shrink)
        self.blocks = max(2, self.BLOCKS // shrink)

    def measure(self) -> None:
        for _ in range(self.blocks):
            self.transfer_block(self.TXS_PER_BLOCK)

    def check(self) -> Outcome:
        transfers = self.blocks * self.TXS_PER_BLOCK
        bad_receipts = self.check_state(transfers)
        return Outcome(
            ops=transfers - bad_receipts,
            attempted=transfers,
            failed=bad_receipts,
            digests={"final_root": self.chain.state.committed_root.hex()},
        )


class StateRead(_StateWorld):
    """The same deep tree read the other way round: batches of 1 000 ×
    (``prove_account`` of a uniformly random account + ``verify_proof``
    against the committed root), with one 16-transfer block between
    batches so the served root keeps moving.  A node layout that speeds
    commits but slows proof serving shows here.

    op = verified proof.
    """

    BATCHES = 46
    PROOFS_PER_BATCH = 1000
    TXS_PER_BLOCK = 16

    def __init__(self, seed: int, shrink: int = 1):
        super().__init__(seed, shrink)
        self.batches = max(2, self.BATCHES // shrink)
        self.verified = 0

    def measure(self) -> None:
        rng, state, accounts = self.rng, self.chain.state, self.accounts
        for _ in range(self.batches):
            root = state.committed_root
            for _ in range(self.PROOFS_PER_BATCH):
                proof = state.prove_account(accounts[rng.randrange(len(accounts))])
                self.verified += merkle_proof.verify_proof(proof, root)
            self.transfer_block(self.TXS_PER_BLOCK)

    def check(self) -> Outcome:
        proofs = self.batches * self.PROOFS_PER_BATCH
        bad_receipts = self.check_state(self.batches * self.TXS_PER_BLOCK)
        return Outcome(
            ops=self.verified,
            attempted=proofs,
            failed=(proofs - self.verified) + bad_receipts,
            digests={"final_root": self.chain.state.committed_root.hex()},
        )


WORKLOADS = {
    "fleet_transfers": FleetTransfers,
    "kitties_replay": KittiesReplay,
    "scoin_moves": ScoinMoves,
    "state_write": StateWrite,
    "state_read": StateRead,
}
