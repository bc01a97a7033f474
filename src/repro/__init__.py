"""Reproduction of "Smart Contracts on the Move" (Fynn, Bessani,
Pedone — DSN 2020).

The **Move protocol** lets smart contracts and accounts migrate
consistently between blockchains: ``Move1`` locks a contract at its
source chain (the new ``OP_MOVE`` opcode assigns the location field
``L_c``), and ``Move2`` recreates it at the target chain from a Merkle
proof of the locked state, guarded against replays by a per-contract
move nonce.  One primitive serves both blockchain interoperability and
shard rebalancing.

Package map — see DESIGN.md for the full inventory:

==================  ====================================================
``repro.api``       the stable public facade — import from here
``repro.node``      long-running node runtime: chains, relays, drivers
``repro.gateway``   bounded admission, batching, backpressure, futures
``repro.core``      the protocol: Move1/Move2, proofs, relay, swap, GC
``repro.vm``        EVM-flavoured VM, gas schedule, OP_MOVE, assembler
``repro.runtime``   Solidity-like contract layer (slots, require, msg)
``repro.merkle``    binary Merkle tree, IAVL, Patricia trie, proofs
``repro.statedb``   journaled world state with per-block commitments
``repro.chain``     blocks, mempool, executor, light clients
``repro.consensus`` Tendermint-style BFT and Nakamoto PoW engines
``repro.net``       discrete-event simulator + 14-region WAN model
``repro.lang``      MovableContract, STokenI/AccountI interfaces
``repro.apps``      SCoin, ScalableKitties, Store-N
``repro.sharding``  hash partitioning, N-shard clusters
``repro.rebalance`` load signals, Move-based rebalancing control loop
``repro.traces``    synthetic CryptoKitties traces + DAG replay
``repro.ibc``       header relays, cross-chain bridge, Fig. 8/9 harness
``repro.workload``  closed-loop SCoin clients (Fig. 6/7), open-loop fleet
==================  ====================================================

Quick start: ``python -m repro move-demo`` or see ``examples/``.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
