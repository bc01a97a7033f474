"""Hash functions.

All commitments in the substrate (block hashes, Merkle roots, addresses)
go through :func:`keccak`, which is SHA3-256 — the standardized sibling
of the Keccak-256 used by Ethereum.  Digests are 32 bytes.

Merkle-tree hashing is domain-separated: leaves and internal nodes are
hashed with distinct prefixes so that a proof cannot present an internal
node as a leaf (second-preimage attack on naive Merkle trees).

Small inputs go through one process-wide memo, two plain dicts mapping
input bytes to digests, with no lock: no thread runs in :mod:`repro`.
Were two to race, a rotation could lose entries and a counter an
increment, but no lookup could return a wrong digest: each value is
computed from its own key.
"""

from __future__ import annotations

import functools
import hashlib

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

#: At most this many entries, each one input (≤128 B) and its 32 B
#: digest in a dict slot.  It holds the inputs that do repeat — key and
#: address derivations and the upper steps of verified proofs; tree-node
#: digests never enter it (see :func:`merkle_hash_node`).
_MEMO_SIZE = 65536

#: The memo's two generations.  A lookup tries ``_young``, then
#: ``_old``; an ``_old`` hit moves to ``_young``, so an entry in use
#: survives the next rotation.  A miss is hashed into ``_young``; once
#: ``_young`` holds half of :data:`_MEMO_SIZE`, the next insert first
#: drops ``_old`` and makes ``_young`` the old generation.
_young: dict = {}
_old: dict = {}
_hits = 0
_misses = 0

_sha3_256 = hashlib.sha3_256


def _remember(data: bytes) -> bytes:
    """The digest of ``data`` once ``_young`` has missed: ``_old``'s,
    moved up, or a fresh SHA3, inserted into ``_young``."""
    global _young, _old, _hits, _misses
    digest = _old.pop(data, None)
    if digest is None:
        _misses += 1
        digest = _sha3_256(data).digest()
    else:
        _hits += 1
    if len(_young) >= _MEMO_SIZE // 2:
        _old = _young
        _young = {}
    _young[data] = digest
    return digest


def keccak(data: bytes, *more: bytes) -> bytes:
    """Return the 32-byte SHA3-256 digest of the concatenated chunks.

    Small inputs are memoized (at most :data:`_MEMO_SIZE` entries, two
    generations): the hot paths re-derive the same storage-slot keys and
    addresses millions of times per experiment, and a hit is one
    ``dict.get``, an order of magnitude cheaper than a SHA3 permutation.
    The common one-chunk call packs no argument tuple.
    """
    global _hits
    if more:
        data = b"".join((data, *more))
    if len(data) > _MEMO_MAX_LEN:
        return _sha3_256(data).digest()
    digest = _young.get(data)
    if digest is None:
        return _remember(data)
    _hits += 1
    return digest


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
    global _hits
    hits = 0
    digest = _sha3_256(leaf).digest()
    for prefix, suffix in steps:
        data = prefix + digest + suffix
        if len(data) > _MEMO_MAX_LEN:
            digest = _sha3_256(data).digest()
            continue
        known = _young.get(data)
        if known is None:
            digest = _remember(data)
        else:
            hits += 1
            digest = known
    _hits += hits
    return digest


#: Few distinct contract codes exist, each kilobytes long, and a Move2
#: hashes its contract's when the Move2 is signed and again in VP.
_CODE_MEMO_SIZE = 256


@functools.lru_cache(maxsize=_CODE_MEMO_SIZE)
def keccak_code(code: bytes) -> bytes:
    """:func:`keccak` of a contract code blob, memoized by content: a
    blob differing in any byte is another key with its own digest."""
    return keccak(code)


def keccak_memo_info() -> functools._CacheInfo:
    """Statistics of the small-input memo (for benchmarks), in
    ``lru_cache``'s ``CacheInfo(hits, misses, maxsize, currsize)``."""
    return functools._CacheInfo(_hits, _misses, _MEMO_SIZE, len(_young) + len(_old))


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
