"""Unit tests for repro.crypto.hashing."""

from repro.crypto.hashing import (
    DIGEST_SIZE,
    keccak,
    keccak_hex,
    merkle_hash_leaf,
    merkle_hash_node,
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
