"""Per-chain configuration.

The two parameter sets below mirror Section VI of the paper:
Tendermint configured to wait five seconds between blocks, Ethereum
fifteen; ``p`` (Section IV-A) set to two blocks for Burrow — because
Burrow saves the state of block *n* only in block *n+1*, clients must
wait two blocks anyway — and six blocks for Ethereum.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from repro.errors import ConfigError
from repro.merkle.iavl import IAVLTree
from repro.merkle.protocol import TreeFactory
from repro.merkle.trie import MerklePatriciaTrie
from repro.vm.gas import BURROW_SCHEDULE, ETHEREUM_SCHEDULE, GasSchedule


@dataclass(frozen=True)
class ChainParams:
    """Static configuration of one blockchain."""

    chain_id: int
    name: str
    flavor: str  # "burrow" | "ethereum"
    block_interval: float  # seconds between consecutive blocks
    confirmation_depth: int  # p: blocks behind head before accepted by peers
    gas_schedule: GasSchedule
    tree_factory: TreeFactory
    max_block_txs: int = 500
    #: Tendermint/Burrow quirk: the app state root of block n is carried
    #: by header n+1, so proofs about block n need header n+1.
    state_root_lag: int = 0
    #: validators (Tendermint) or miners (PoW) per chain
    validator_count: int = 10
    #: native-currency units charged per unit of gas (0 = free, the
    #: default for experiments that measure gas itself).  Fees are what
    #: make congestion economically visible — §IV-B: "as shards get
    #: congested and fees increase, users are tempted to move their
    #: contracts to underused shards".
    gas_price: int = 0
    #: retired: blocks execute on the one serial loop, and the only
    #: accepted value is 0.  The keyword survives because the frozen
    #: benchmark harness still passes it (see docs/PERFORMANCE.md).
    executor_workers: int = 0
    #: how many recent blocks keep their post-state root and the account
    #: proofs captured at their commit (locked contract leaves and
    #: replicated contracts) for serving historical proofs.  Must comfortably
    #: exceed every peer's ``state_root_lag + confirmation_depth`` (the
    #: light-client horizon) plus any GC age gate, so pending Move2
    #: proofs are never orphaned; beyond that, retaining roots forever
    #: just leaks memory on long-running chains.  0 disables pruning.
    snapshot_retention: int = 256

    def __post_init__(self) -> None:
        """Reject impossible configurations at construction time.

        Every check here used to surface only deep inside
        ``produce_block`` (a zero interval looping the timer driver, a
        negative ``p`` making proofs "ready" before inclusion); failing
        fast with the field name and a fix keeps the blast radius at the
        call site.
        """
        if self.chain_id < 0:
            raise ConfigError(
                f"chain_id must be non-negative, got {self.chain_id}"
            )
        if not 0 < self.block_interval < inf:
            raise ConfigError(
                f"block_interval must be a finite, positive number of seconds, got "
                f"{self.block_interval!r} — a non-positive interval would make "
                "the block timer fire at or before the current instant forever"
            )
        if self.confirmation_depth < 0:
            raise ConfigError(
                f"confirmation_depth (p) must be >= 0, got {self.confirmation_depth} "
                "— a negative p would declare proofs ready before inclusion"
            )
        if self.state_root_lag < 0:
            raise ConfigError(
                f"state_root_lag must be >= 0, got {self.state_root_lag}"
            )
        if self.max_block_txs < 1:
            raise ConfigError(
                f"max_block_txs must be >= 1, got {self.max_block_txs} — "
                "blocks that can hold no transactions never drain the mempool"
            )
        if self.validator_count < 1:
            raise ConfigError(
                f"validator_count must be >= 1, got {self.validator_count}"
            )
        if self.gas_price < 0:
            raise ConfigError(f"gas_price must be >= 0, got {self.gas_price}")
        if type(self.executor_workers) is not int or self.executor_workers != 0:
            raise ConfigError(
                f"executor_workers must be 0, got {self.executor_workers!r} — the "
                "parallel block pipeline was removed and every block runs on the "
                "serial loop (docs/PERFORMANCE.md records the measurement)"
            )
        if self.snapshot_retention < 0:
            raise ConfigError(
                f"snapshot_retention must be >= 0 (0 disables pruning), got "
                f"{self.snapshot_retention}"
            )
        horizon = self.state_root_lag + self.confirmation_depth
        if 0 < self.snapshot_retention <= horizon:
            raise ConfigError(
                f"snapshot_retention={self.snapshot_retention} is inside the "
                f"light-client horizon (state_root_lag + confirmation_depth = "
                f"{horizon}) — still-provable Move1 proofs would be pruned; "
                f"use at least {horizon + 1}, or 0 to disable pruning"
            )


def burrow_params(chain_id: int, name: str = "", **overrides) -> ChainParams:
    """A Burrow/Tendermint-flavoured chain (5 s blocks, p=2, IAVL).

    Any :class:`ChainParams` field can be overridden by keyword.
    """
    # The paper sets "p = 2 blocks" for Burrow because the state of
    # block n is saved only in block n+1: one block of root-publication
    # lag plus one block of depth equals the paper's two-block wait
    # ("clients have no option other to wait for two blocks").
    fields = dict(
        chain_id=chain_id,
        name=name or f"burrow-{chain_id}",
        flavor="burrow",
        block_interval=5.0,
        confirmation_depth=1,
        gas_schedule=BURROW_SCHEDULE,
        tree_factory=IAVLTree,
        state_root_lag=1,
    )
    fields.update(overrides)
    return ChainParams(**fields)


def ethereum_params(chain_id: int, name: str = "", **overrides) -> ChainParams:
    """An Ethereum-flavoured chain (15 s blocks, p=6, Patricia trie).

    Any :class:`ChainParams` field can be overridden by keyword.
    """
    fields = dict(
        chain_id=chain_id,
        name=name or f"ethereum-{chain_id}",
        flavor="ethereum",
        block_interval=15.0,
        confirmation_depth=6,
        gas_schedule=ETHEREUM_SCHEDULE,
        tree_factory=MerklePatriciaTrie,
        state_root_lag=0,
    )
    fields.update(overrides)
    return ChainParams(**fields)


#: Default instances used by examples and tests.
BURROW_PARAMS = burrow_params(chain_id=1)
ETHEREUM_PARAMS = ethereum_params(chain_id=2)
