"""Hash functions.

All commitments in the substrate (block hashes, Merkle roots, addresses)
go through :func:`keccak`, which is SHA3-256 — the standardized sibling
of the Keccak-256 used by Ethereum.  Digests are 32 bytes.

Merkle-tree hashing is domain-separated: leaves and internal nodes are
hashed with distinct prefixes so that a proof cannot present an internal
node as a leaf (second-preimage attack on naive Merkle trees).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

DIGEST_SIZE = 32

_LEAF_PREFIX = b"\x00"
_NODE_PREFIX = b"\x01"

#: Inputs up to this many bytes go through the memo table.  Small
#: inputs are the repeated ones — storage-slot key derivations
#: (``keccak(map_base, account)``), address derivations, simulated
#: signatures — while most big inputs (proof bodies, signing payloads)
#: are hashed once and would only churn the cache.  The big inputs
#: that *are* re-hashed, contract code blobs, have their own memo
#: (:func:`keccak_code`).
_MEMO_MAX_LEN = 128

#: Bounded LRU: ~64k entries × (≤128 B key + 32 B digest) stays small.
#: It holds the inputs that do repeat — key and address derivations and
#: the upper steps of verified proofs; tree-node digests never enter it
#: (see :func:`merkle_hash_node`).
_MEMO_SIZE = 65536


_sha3_256 = hashlib.sha3_256


@lru_cache(maxsize=_MEMO_SIZE)
def _keccak_small(data: bytes) -> bytes:
    return _sha3_256(data).digest()


def keccak(*chunks: bytes) -> bytes:
    """Return the 32-byte SHA3-256 digest of the concatenated chunks.

    Small inputs are memoized (bounded LRU, thread-safe): the hot paths
    re-derive the same storage-slot keys and addresses millions of
    times per experiment, and a dict hit beats a SHA3 permutation by an
    order of magnitude.
    """
    data = chunks[0] if len(chunks) == 1 else b"".join(chunks)
    if len(data) <= _MEMO_MAX_LEN:
        return _keccak_small(data)
    return _sha3_256(data).digest()


def keccak_path(leaf: bytes, steps) -> bytes:
    """Root of a Merkle path: the digest of ``leaf`` folded up through
    ``(prefix, suffix)`` steps, ``digest = keccak(prefix + digest +
    suffix)``, leaf to root — a membership proof's ``VP`` fold.

    The leaf is hashed directly: leaves of a served tree are proven one
    at a time and rarely repeat, so a memo lookup would mostly miss.
    The steps go through :func:`keccak`'s memo (MPT branch steps, over
    :data:`_MEMO_MAX_LEN`, are hashed directly), in one loop rather
    than one :func:`keccak` call per step.
    """
    digest = _sha3_256(leaf).digest()
    for prefix, suffix in steps:
        data = prefix + digest + suffix
        if len(data) <= _MEMO_MAX_LEN:
            digest = _keccak_small(data)
        else:
            digest = _sha3_256(data).digest()
    return digest


#: Few distinct contract codes exist, each kilobytes long, and a Move2
#: hashes its contract's on the proving, validating and recreating side.
_CODE_MEMO_SIZE = 256


@lru_cache(maxsize=_CODE_MEMO_SIZE)
def keccak_code(code: bytes) -> bytes:
    """:func:`keccak` of a contract code blob, memoized by content: a
    blob differing in any byte is another key with its own digest."""
    return keccak(code)


def keccak_memo_info():
    """Cache statistics of the small-input memo (for benchmarks)."""
    return _keccak_small.cache_info()


def keccak_hex(*chunks: bytes) -> str:
    """Hex form of :func:`keccak`, convenient for ids and logs."""
    return keccak(*chunks).hex()


def merkle_hash_leaf(payload: bytes) -> bytes:
    """Hash a Merkle-tree leaf (domain-separated).

    Tree builders hash through this and :func:`merkle_hash_node`, which
    bypass the memo: their inputs are fresh by construction; memoising
    them costs a miss and evicts a key derivation.
    """
    return _sha3_256(_LEAF_PREFIX + payload).digest()


def merkle_hash_node(left: bytes, right: bytes) -> bytes:
    """Hash an internal Merkle-tree node from its children's digests
    (un-memoised, like :func:`merkle_hash_leaf`)."""
    return _sha3_256(_NODE_PREFIX + left + right).digest()
