"""Cryptographic primitives used by the blockchain substrate.

The real systems modified by the paper (go-ethereum and Hyperledger
Burrow) use Keccak-256 and secp256k1/ed25519.  This reproduction uses
SHA3-256 (the standardized Keccak variant shipped with CPython) for all
hashing and one fast hash-based
:class:`~repro.crypto.signature.SimulatedSigner` for signatures: the
paper measures latency and gas, not signature security, so a real
scheme's per-transaction cost would only slow the simulator down
without changing any measured quantity.
"""

from repro.crypto.hashing import keccak, keccak_hex, merkle_hash_leaf, merkle_hash_node
from repro.crypto.keys import (
    Address,
    KeyPair,
    contract_address,
    create2_address,
    derive_address,
)
from repro.crypto.signature import SimulatedSigner

__all__ = [
    "keccak",
    "keccak_hex",
    "merkle_hash_leaf",
    "merkle_hash_node",
    "Address",
    "KeyPair",
    "derive_address",
    "contract_address",
    "create2_address",
    "SimulatedSigner",
]
