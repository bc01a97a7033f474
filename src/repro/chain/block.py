"""Blocks: header + body, hashing, transaction-root commitment."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.chain.tx import Move2Payload, Transaction
from repro.crypto.hashing import keccak
from repro.merkle.binary import BinaryMerkleTree

GENESIS_PARENT = b"\x00" * 32


@dataclass(frozen=True)
class BlockHeader:
    """Block header — what light clients download and trust.

    ``state_root`` is the Merkle root ``m`` against which Move2 proofs
    verify.  On Burrow-flavoured chains it is the root of the *previous*
    block's post-state (``state_root_lag = 1``); on Ethereum-flavoured
    chains it is this block's post-state.
    """

    chain_id: int
    height: int
    parent_hash: bytes
    state_root: bytes
    txs_root: bytes
    timestamp: float
    proposer: str = ""

    def hash(self) -> bytes:
        """Digest over every header field (the block id)."""
        return keccak(
            b"header",
            self.chain_id.to_bytes(8, "big"),
            self.height.to_bytes(8, "big"),
            self.parent_hash,
            self.state_root,
            self.txs_root,
            repr(self.timestamp).encode(),
            self.proposer.encode(),
        )

    def size_bytes(self) -> int:
        """Serialized header size — what a light client downloads.

        Section III-A: "block headers have a constant size of usually
        hundreds of bytes and are on average a small fraction of block
        bodies" (~2 % on Ethereum).
        """
        return 8 + 8 + 32 + 32 + 32 + 8 + len(self.proposer.encode())


@dataclass
class Block:
    """Header plus transaction body."""

    header: BlockHeader
    transactions: List[Transaction] = field(default_factory=list)

    def hash(self) -> bytes:
        """The block's id (its header hash)."""
        return self.header.hash()

    def body_size_bytes(self) -> int:
        """Approximate serialized body size: the signed transactions,
        plus the code a Move2 ships beside its signed bytes (it signs
        only the code's hash)."""
        size = 0
        for tx in self.transactions:
            size += len(tx.signing_bytes()) + len(tx.signature)
            if isinstance(tx.payload, Move2Payload):
                size += len(tx.payload.bundle.code)
        return size

    @property
    def height(self) -> int:
        return self.header.height


def transactions_root(transactions: List[Transaction]) -> bytes:
    """Commit the ordered tx list (binary Merkle tree over tx ids)."""
    return BinaryMerkleTree([tx.tx_id.encode() for tx in transactions]).root
