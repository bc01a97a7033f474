"""Unit tests for repro.crypto.hashing."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.hashing import (
    DIGEST_SIZE,
    keccak,
    keccak_hex,
    merkle_hash_leaf,
    merkle_hash_node,
)
from repro.crypto import hashing
from repro.crypto.hashing import (
    _MEMO_MAX_LEN,
    _MEMO_SIZE,
    keccak_code,
    keccak_memo_info,
    keccak_path,
)


def test_digest_size():
    assert len(keccak(b"x")) == DIGEST_SIZE


def test_deterministic():
    assert keccak(b"abc") == keccak(b"abc")


def test_chunking_is_concatenation():
    assert keccak(b"ab", b"c") == keccak(b"abc")


def test_different_inputs_differ():
    assert keccak(b"a") != keccak(b"b")


def test_hex_form():
    assert keccak_hex(b"x") == keccak(b"x").hex()
    assert len(keccak_hex(b"x")) == 64


def test_leaf_and_node_domains_are_separated():
    payload = keccak(b"left") + keccak(b"right")
    assert merkle_hash_leaf(payload) != merkle_hash_node(keccak(b"left"), keccak(b"right"))


def test_node_hash_order_matters():
    a, b = keccak(b"a"), keccak(b"b")
    assert merkle_hash_node(a, b) != merkle_hash_node(b, a)


def test_memo_matches_unmemoized_reference():
    import hashlib

    from repro.crypto.hashing import _MEMO_MAX_LEN, keccak_memo_info

    small = b"\x07" * _MEMO_MAX_LEN          # memoized path
    large = b"\x07" * (_MEMO_MAX_LEN + 1)    # direct path
    assert keccak(small) == hashlib.sha3_256(small).digest()
    assert keccak(large) == hashlib.sha3_256(large).digest()
    before = keccak_memo_info().hits
    keccak(small)
    keccak(b"\x07" * 64, b"\x07" * 64)  # same bytes via chunks: same entry
    assert keccak_memo_info().hits >= before + 2


def test_code_memo_is_keyed_by_content():
    import hashlib

    from repro.crypto.hashing import keccak_code

    code = b"contract source " * 400  # far past the small-input memo
    assert keccak_code(code) == keccak(code) == hashlib.sha3_256(code).digest()
    before = keccak_code.cache_info()
    assert keccak_code(bytes(code)) == keccak(code)  # an equal blob, by value
    assert keccak_code.cache_info().hits == before.hits + 1
    tampered = code[:-1] + b"!"
    assert keccak_code(tampered) == hashlib.sha3_256(tampered).digest() != keccak(code)
    after = keccak_code.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses + 1)
    assert after.maxsize is not None  # bounded


def test_path_folds_small_steps_through_the_one_memo():
    import hashlib

    from repro.crypto.hashing import _MEMO_MAX_LEN, keccak_memo_info, keccak_path

    leaf = b"\x00leaf"
    small = (b"\x01", b"s" * 32)  # 65 bytes with the digest: memoized
    large = (b"\x03" * _MEMO_MAX_LEN, b"")  # over the bound: hashed directly
    reference = hashlib.sha3_256(leaf).digest()
    for prefix, suffix in (small, large):
        reference = hashlib.sha3_256(prefix + reference + suffix).digest()
    before = keccak_memo_info()
    assert keccak_path(leaf, (small, large)) == reference
    after = keccak_memo_info()
    # one lookup, the small step's — in the memo keccak itself uses, so
    # whatever evicts keccak's entries evicts the fold's
    assert after.hits + after.misses == before.hits + before.misses + 1
    assert keccak_path(leaf, ()) == hashlib.sha3_256(leaf).digest()


# -- the two-generation memo --------------------------------------------

@pytest.fixture
def empty_memo(monkeypatch):
    """The process memo swapped for an empty one for the test's life."""
    monkeypatch.setattr(hashing, "_young", {})
    monkeypatch.setattr(hashing, "_old", {})


def lookups():
    info = keccak_memo_info()
    return info.hits + info.misses


def fill(n, tag):
    for i in range(n):
        keccak(b"%s-%d" % (tag, i))


small_inputs = st.binary(max_size=_MEMO_MAX_LEN)
large_inputs = st.binary(min_size=_MEMO_MAX_LEN + 1, max_size=2 * _MEMO_MAX_LEN)


@settings(max_examples=200, deadline=None)
@given(
    size=st.sampled_from([2, 4, 8, 16]),
    pool=st.lists(st.one_of(small_inputs, large_inputs), min_size=1, max_size=12, unique=True),
    picks=st.lists(st.integers(0, 11), min_size=1, max_size=120),
)
def test_memo_returns_sha3_and_stays_bounded_across_rotations(size, pool, picks):
    # a memo of a few entries rotates many times in one example
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hashing, "_MEMO_SIZE", size)
        patch.setattr(hashing, "_young", {})
        patch.setattr(hashing, "_old", {})
        for pick in picks:
            data = pool[pick % len(pool)]
            before = lookups()
            assert keccak(data) == hashlib.sha3_256(data).digest()
            # one lookup per small input, none for a large one
            assert lookups() == before + (len(data) <= _MEMO_MAX_LEN)
            info = keccak_memo_info()
            assert info.maxsize == size and info.currsize <= size
        steps = [(b"\x01", data[:40]) for data in pool]
        reference = hashlib.sha3_256(b"leaf").digest()
        for prefix, suffix in steps:
            reference = hashlib.sha3_256(prefix + reference + suffix).digest()
        assert keccak_path(b"leaf", steps) == reference
        assert keccak_memo_info().currsize <= size


@pytest.mark.parametrize(
    "earlier", [1, _MEMO_SIZE // 2 - 1, _MEMO_SIZE // 2, _MEMO_SIZE // 2 + 1, _MEMO_SIZE]
)
def test_maxsize_fresh_inputs_evict_every_earlier_entry(empty_memo, earlier):
    # the cold start the perf harness makes before every round
    fill(earlier, b"earlier")
    keccak(b"earlier-0")  # a hit: moved to the young generation
    fill(keccak_memo_info().maxsize, b"fresh")
    hits = keccak_memo_info().hits
    fill(earlier, b"earlier")
    assert keccak_memo_info().hits == hits


def test_an_old_hit_survives_the_next_rotation(empty_memo):
    half = _MEMO_SIZE // 2
    keccak(b"used")
    keccak(b"unused")
    fill(half - 2, b"a")  # the young generation is full
    keccak(b"rotate")  # ... so this insert makes it the old one
    assert keccak_memo_info().currsize == half + 1
    misses = keccak_memo_info().misses
    keccak(b"used")  # served by the old generation, moved to the young
    assert keccak_memo_info().misses == misses
    assert keccak_memo_info().currsize == half + 1  # no second copy
    fill(half - 2, b"b")
    keccak(b"rotate again")  # drops the generation "unused" was in
    assert keccak_memo_info().currsize == half + 1
    before = keccak_memo_info()
    keccak(b"used")
    keccak(b"unused")
    after = keccak_memo_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses + 1)


def test_memo_info_keeps_the_cache_info_fields(empty_memo):
    info = keccak_memo_info()
    assert type(info) is type(keccak_code.cache_info())  # functools' CacheInfo
    assert info._fields == ("hits", "misses", "maxsize", "currsize")
    assert (info.maxsize, info.currsize) == (_MEMO_SIZE, 0)
    keccak(b"a")  # miss: hashed and held
    keccak(b"a")  # hit
    keccak(b"b" * (_MEMO_MAX_LEN + 1))  # bypass: not counted, not held
    after = keccak_memo_info()
    assert (after.hits, after.misses) == (info.hits + 1, info.misses + 1)
    assert (after.maxsize, after.currsize) == (_MEMO_SIZE, 1)


#: Bytes ``tracemalloc`` attributes to the memo after a fresh
#: interpreter fills it to capacity with 65-byte inputs.  The
#: ``functools.lru_cache`` layout this memo replaced held 20 119 576
#: (a link object and a 1-tuple key per entry besides the input and
#: digest); two dicts hold 13 304 304 on CPython 3.11.
LRU_CACHE_FOOTPRINT = 20_119_576

FOOTPRINT_SCRIPT = """
import tracemalloc
from repro.crypto.hashing import keccak, keccak_memo_info
assert keccak_memo_info().currsize == 0
tracemalloc.start()
for i in range(keccak_memo_info().maxsize):
    keccak(b"%065d" % i)
held = tracemalloc.get_traced_memory()[0]
assert keccak_memo_info().currsize == keccak_memo_info().maxsize
print(held)
"""


def test_full_memo_footprint_is_well_under_lru_caches():
    src = Path(hashing.__file__).parents[2]
    held = int(
        subprocess.run(
            [sys.executable, "-c", FOOTPRINT_SCRIPT],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    )
    assert held <= 0.7 * LRU_CACHE_FOOTPRINT, held
