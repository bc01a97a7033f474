"""The contract-leaf codec: ``decode_contract_leaf`` inverts
``encode_contract_leaf`` over every value the leaf can hold, and refuses
every other shape with ``ProofError``."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ProofError
from repro.statedb.state import (
    AccountRecord,
    ContractLeaf,
    ContractRecord,
    decode_contract_leaf,
    encode_account_leaf,
    encode_contract_leaf,
)

BALANCES = st.one_of(st.sampled_from([0, 1, 2**64 - 1, 2**256 - 1]), st.integers(0, 2**256 - 1))
WORDS = st.one_of(st.sampled_from([0, 1, 2**64 - 1]), st.integers(0, 2**64 - 1))
DIGESTS = st.binary(min_size=32, max_size=32)


@given(BALANCES, WORDS, WORDS, DIGESTS, DIGESTS)
def test_decode_inverts_encode(balance, location, move_nonce, code_hash, storage_root):
    record = ContractRecord(
        code_hash=code_hash, location=location, balance=balance, move_nonce=move_nonce
    )
    leaf = encode_contract_leaf(record, storage_root)
    assert decode_contract_leaf(leaf) == ContractLeaf(
        balance, location, move_nonce, code_hash, storage_root
    )


@pytest.mark.parametrize(
    "leaf",
    [
        encode_account_leaf(AccountRecord(balance=5, nonce=1)),
        b"A" + b"\x00" * 112,  # an account tag at a contract leaf's length
        b"C" + b"\x00" * 111,  # truncated by one byte
        b"C" + b"\x00" * 113,  # one byte too many
        b"D" + b"\x00" * 112,  # wrong tag
        b"",
        bytearray(b"C" + b"\x00" * 112),  # not bytes
    ],
    ids=["account", "account-tag", "truncated", "114-bytes", "wrong-tag", "empty", "bytearray"],
)
def test_decode_refuses_every_other_shape(leaf):
    with pytest.raises(ProofError, match="not a contract leaf"):
        decode_contract_leaf(leaf)
