"""The genesis commit builds the account tree in one pass.

``Chain.fund`` credits a population outside any transaction and commits
it; into an empty account tree that commit is one ``from_sorted`` build
instead of one rotating ``set`` per account.  These tests pin the three
things that must hold for that to be an optimisation and nothing more:

* the one-pass tree is the tree ascending ``set`` makes — same root,
  same proofs, and the same root after later incremental blocks — on
  both flavours (IAVL and Patricia trie);
* a genesis commit really calls ``IAVLTree.set`` zero times;
* ``fund`` refuses atomically: a bad allocation credits nothing, marks
  nothing dirty and so reaches no later root.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.chain import Chain
from repro.chain.params import burrow_params, ethereum_params
from repro.crypto.hashing import keccak
from repro.crypto.keys import Address
from repro.errors import StateError
from repro.merkle.iavl import IAVLTree
from repro.statedb.state import (
    compute_storage_root,
    encode_account_leaf,
    encode_contract_leaf,
)

CODE = b"bulk-build-code"
CODE_HASH = keccak(CODE)

PARAMS = {"burrow": lambda: burrow_params(1), "ethereum": lambda: ethereum_params(2)}


def _leaf(state, address: Address) -> bytes:
    record = state.contracts.get(address)
    if record is None:
        return encode_account_leaf(state.accounts[address])
    return encode_contract_leaf(
        record, compute_storage_root(state.tree_factory, record.storage)
    )


def _set_ascending(tree, state, addresses) -> None:
    for address in sorted(addresses, key=lambda a: a.raw):
        tree.set(address.raw, _leaf(state, address))


@settings(max_examples=30, deadline=None)
@given(
    flavour=st.sampled_from(sorted(PARAMS)),
    raws=st.lists(
        st.binary(min_size=20, max_size=20), min_size=1, max_size=80, unique=True
    ),
    contracts=st.integers(min_value=0, max_value=6),
    amounts=st.lists(st.integers(min_value=0, max_value=10**30), min_size=1),
    data=st.data(),
)
def test_one_pass_genesis_is_the_ascending_set_tree(
    flavour, raws, contracts, amounts, data
):
    chain = Chain(PARAMS[flavour](), verify_signatures=False)
    state = chain.state
    addresses = [Address(raw) for raw in raws]
    # Some allocations go to contracts created (with storage) before
    # the first funding, so the genesis build mixes both leaf kinds.
    for i, address in enumerate(addresses[:contracts]):
        state.create_contract(address, CODE_HASH, CODE)
        state.storage_set(address, b"slot", bytes([i + 1]))
    allocations = {
        address: amounts[i % len(amounts)] for i, address in enumerate(addresses)
    }
    chain.fund(allocations)

    reference = state.tree_factory()
    _set_ascending(reference, state, addresses)
    assert state.committed_root == reference.root_hash
    for address in data.draw(
        st.lists(st.sampled_from(addresses), max_size=8), label="proved"
    ):
        assert state.prove_account(address) == reference.prove(address.raw)

    # The next block overwrites some leaves and adds new keys: commits
    # into the one-pass tree land where the ascending-set tree does.
    overwritten = data.draw(
        st.lists(st.sampled_from(addresses), max_size=10, unique=True),
        label="overwritten",
    )
    fresh = [
        Address(raw)
        for raw in data.draw(
            st.lists(st.binary(min_size=20, max_size=20), max_size=10, unique=True),
            label="fresh",
        )
        if Address(raw) not in allocations
    ]
    for address in overwritten + fresh:
        state.add_balance(address, 3)
    state.commit()
    _set_ascending(reference, state, overwritten + fresh)
    assert state.committed_root == reference.root_hash


def test_genesis_commit_never_calls_iavl_set(monkeypatch):
    calls = []
    plain_set = IAVLTree.set

    def counting_set(tree, key, value):
        calls.append(key)
        plain_set(tree, key, value)

    monkeypatch.setattr(IAVLTree, "set", counting_set)
    chain = Chain(burrow_params(1), verify_signatures=False)
    chain.fund({Address(i.to_bytes(20, "big")): 10**9 for i in range(1, 1001)})
    assert calls == []
    # A commit into the now non-empty tree goes through ``set``.
    chain.fund({Address(b"\xff" * 20): 1})
    assert calls == [b"\xff" * 20]


@pytest.mark.parametrize(
    "bad",
    [
        {Address(b"\x02" * 20): -1},
        {Address(b"\x02" * 20): True},
        {Address(b"\x02" * 20): 1.5},
        {b"\x02" * 20: 7},
    ],
    ids=["negative", "bool", "float", "raw-bytes-holder"],
)
def test_refused_fund_credits_nothing(bad):
    a, c = Address(b"\x01" * 20), Address(b"\x03" * 20)
    chain = Chain(burrow_params(1), verify_signatures=False)
    state = chain.state
    chain.fund({Address(b"\x09" * 20): 1})
    root = state.committed_root
    with pytest.raises(StateError):
        chain.fund({a: 5, **bad, c: 7})
    assert state.balance_of(a) == 0 and state.balance_of(c) == 0
    assert not state._dirty
    assert state.committed_root == root

    # A later good fund commits only what it credits, never the
    # refused call's leftovers.
    chain.fund({c: 7})
    clean = Chain(burrow_params(1), verify_signatures=False)
    clean.fund({Address(b"\x09" * 20): 1})
    clean.fund({c: 7})
    assert state.committed_root == clean.state.committed_root
    with pytest.raises(KeyError):
        state.prove_account(a)
