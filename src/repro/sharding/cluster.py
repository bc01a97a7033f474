"""A sharded deployment: N Tendermint shards over one simulated WAN.

Mirrors the paper's cluster (Section VII): 10 validators per shard, one
validator per simulated node, nodes randomly assigned to the 14 regions;
one client host maintaining a connection per shard.  The shards are one
:class:`~repro.node.Node` under the ``"consensus"`` driver — one
simulator, so cross-shard timing is globally consistent, and headers
relayed between all shards, so any shard can verify any other's Move2
proofs.  The cluster holds the node rather than being one: its
``submit`` addresses a shard by *index* from the client host, not a
chain by id.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.chain.chain import Chain, client_submit
from repro.chain.params import burrow_params
from repro.chain.tx import Transaction
from repro.core.locator import active_chain
from repro.crypto.keys import Address
from repro.node import Node
from repro.sharding.partition import shard_of

#: One-way latency between the client host and a shard's entry point;
#: models the paper's "one node hosts all clients" connection per shard.
CLIENT_SUBMIT_LATENCY = 0.75


class ShardedCluster:
    """N Burrow/Tendermint shards driven by one simulator."""

    def __init__(
        self,
        num_shards: int,
        seed: int = 0,
        validators_per_shard: int = 10,
        max_block_txs: int = 500,
        executor_workers: int = 0,
    ):
        self.num_shards = num_shards
        self.node = Node(
            [
                burrow_params(
                    chain_id=index + 1,
                    name=f"shard-{index}",
                    max_block_txs=max_block_txs,
                    validator_count=validators_per_shard,
                    executor_workers=executor_workers,
                )
                for index in range(num_shards)
            ],
            seed=seed,
            driver="consensus",
            verify_signatures=False,
        )
        self.sim = self.node.sim
        self.network = self.node.network
        self.registry = self.node.registry
        self.engines = self.node.engines
        self.shards: List[Chain] = list(self.node.chains.values())

    # ------------------------------------------------------------------

    def start(self) -> None:
        """Start consensus on every shard."""
        self.node.start()

    def stop(self) -> None:
        """Stop consensus on every shard (a stopped cluster can restart)."""
        self.node.stop()

    def run(self, until: float) -> None:
        """Advance the shared simulator to ``until`` seconds."""
        self.sim.run(until=until)

    # ------------------------------------------------------------------

    def shard_index_of(self, address: Address) -> int:
        """Hash-partitioned home shard of a contract address."""
        return shard_of(address, self.num_shards)

    def shard(self, index: int) -> Chain:
        """The chain of the shard at ``index`` (0-based)."""
        return self.shards[index]

    def fund_all(self, allocations: Dict[Address, int]) -> None:
        """Credit balances on every shard (clients pay fees anywhere)."""
        for shard in self.shards:
            shard.fund(allocations)

    def submit(self, shard_index: int, tx: Transaction, on_receipt) -> None:
        """Submit from the client host, one network hop from the shard;
        ``on_receipt(receipt)`` fires once the transaction executes."""
        client_submit(
            self.sim, self.shards[shard_index], tx, on_receipt, CLIENT_SUBMIT_LATENCY
        )

    def locate_contract(self, address: Address) -> Optional[int]:
        """Shard *index* holding the active copy of a contract, if any.

        Reads each shard's ``L_c``
        (:func:`~repro.core.locator.active_chain`), so a contract created
        by another contract mid-call is found like a deployed one.  A
        contract mid-move (between Move1 and Move2) has no active copy
        and returns None.  The shard at index ``i`` is chain ``i + 1``.
        """
        chain = active_chain(self.shards, address)
        return None if chain is None else chain.chain_id - 1

    # ------------------------------------------------------------------
    # Rebalancing control plane
    # ------------------------------------------------------------------

    def load_plane(self):
        """A :class:`~repro.rebalance.signals.SignalPlane` wired to this
        cluster: block-fill utilization and per-contract hotness for
        every shard, locating contracts through :meth:`locate_contract`."""
        from repro.rebalance.signals import (
            ContractHotnessSignal,
            ShardLoadMonitor,
            SignalPlane,
        )

        utilization = ShardLoadMonitor(self.shards)
        hotness = ContractHotnessSignal()
        for index, shard in enumerate(self.shards):
            hotness.watch(index, shard)
        return SignalPlane(utilization, hotness, locate=self.locate_contract)

    def auto_rebalancer(
        self,
        actuator=None,
        policy=None,
        interval: float = 20.0,
    ):
        """A ready-to-start :class:`~repro.rebalance.rebalancer
        .Rebalancer` over this cluster's signal plane."""
        from repro.rebalance.rebalancer import Rebalancer

        return Rebalancer(
            self.sim,
            self.load_plane(),
            policy=policy,
            actuator=actuator,
            interval=interval,
            telemetry=self.node.telemetry,
        )

    @property
    def total_blocks(self) -> int:
        return sum(shard.height for shard in self.shards)
