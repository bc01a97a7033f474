"""A Move does each expensive step once.

The source proves from the leaf it captured at commit, without
rebuilding the storage tree; the target's ``VP`` builds the canonical
storage tree once and, within one tree flavour, hands it to recreation
as the live trie; a Move2 signs its code by hash.  The counting tests
pin the number of canonical builds; the edge cases guard the checks
that replaced the rebuilds.
"""

import dataclasses
import sys

import pytest

from repro.apps.scoin import SCoin
from repro.chain.chain import Chain
from repro.chain.params import burrow_params
from repro.chain.tx import (
    CallPayload,
    DeployPayload,
    Move1Payload,
    Move2Payload,
    sign_transaction,
)
from repro.core.registry import ChainRegistry
from repro.crypto.hashing import keccak_code
from repro.errors import ProofError
from repro.ibc.headers import connect_chains
from repro.merkle.iavl import IAVLTree
from repro.runtime import MapSlot, external, register_contract
from repro.runtime.contract import Contract
from repro.statedb import state as state_module
from repro.statedb.state import compute_storage_root
from tests.helpers import ALICE, BOB, ManualClock, make_chain_pair, produce, run_tx


@register_contract
class Parcel(Contract):
    """Anyone may move it, and it writes nothing when it arrives."""

    values = MapSlot(int, int)

    @external
    def put(self, key: int, value: int) -> None:
        self.values[key] = value

    def move_to(self, target_chain: int) -> None:
        pass


def count_builds(monkeypatch):
    """Record every canonical storage-tree build, wherever its caller
    imported ``build_storage_trie`` from."""
    real = state_module.build_storage_trie
    flavours = []

    def counted(tree_factory, storage):
        flavours.append(tree_factory)
        return real(tree_factory, storage)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, "build_storage_trie", None) is real:
            monkeypatch.setattr(module, "build_storage_trie", counted)
    return flavours


def burrow_pair():
    registry = ChainRegistry()
    source = Chain(burrow_params(1), registry)
    target = Chain(burrow_params(3), registry)
    connect_chains([source, target])
    return source, target


def deploy(chain, clock, cls, puts=()):
    receipt = run_tx(chain, clock, ALICE, DeployPayload(code_hash=cls.CODE_HASH))
    assert receipt.success, receipt.error
    contract = receipt.return_value
    for key, value in puts:
        assert run_tx(chain, clock, ALICE, CallPayload(contract, "put", (key, value))).success
    return contract


def lock(source, target, clock, contract, mover=ALICE):
    """Move1, then wait until the proof is usable; returns its height."""
    receipt = run_tx(source, clock, mover, Move1Payload(contract, target.chain_id))
    assert receipt.success, receipt.error
    inclusion = receipt.block_height
    while source.height < source.proof_ready_height(inclusion):
        produce(source, clock)
    return inclusion


def move(source, target, clock, contract):
    inclusion = lock(source, target, clock, contract)
    bundle = source.prove_contract_at(contract, inclusion)
    return bundle, run_tx(target, clock, BOB, Move2Payload(bundle))


# ----------------------------------------------------------------------
# The mechanism: builds per Move, and what a Move2 signs
# ----------------------------------------------------------------------


def test_a_move_within_one_flavour_builds_the_storage_tree_once(monkeypatch):
    # Prove at the source, VP at the target, recreation: one build, VP's.
    source, target = burrow_pair()
    clock = ManualClock()
    parcel = deploy(source, clock, Parcel, puts=[(1, 10), (2, 20), (3, 30)])
    builds = count_builds(monkeypatch)
    bundle, receipt = move(source, target, clock, parcel)
    assert receipt.success, receipt.error
    assert builds == [IAVLTree]
    assert target.state.require_contract(parcel).storage == bundle.storage


def test_a_move_across_flavours_builds_once_per_flavour(monkeypatch):
    # VP rebuilds the source's Patricia trie; the Burrow target needs
    # its own IAVL tree beside it.
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    parcel = deploy(ethereum, clock, Parcel, puts=[(1, 10), (2, 20)])
    builds = count_builds(monkeypatch)
    _bundle, receipt = move(ethereum, burrow, clock, parcel)
    assert receipt.success, receipt.error
    assert builds == [ethereum.params.tree_factory, IAVLTree]


def test_move2_signs_the_code_by_hash():
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    token = deploy(burrow, clock, SCoin)
    account, _salt = run_tx(burrow, clock, ALICE, CallPayload(token, "new_account")).return_value
    inclusion = lock(burrow, ethereum, clock, account)
    bundle = burrow.prove_contract_at(account, inclusion)
    signed = sign_transaction(BOB, Move2Payload(bundle)).signing_bytes()
    assert keccak_code(bundle.code) in signed
    assert bundle.code not in signed
    assert len(signed) < len(bundle.code)


def test_block_body_size_counts_the_code_a_move2_ships_unsigned():
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    parcel = deploy(burrow, clock, Parcel, puts=[(1, 10)])
    bundle, receipt = move(burrow, ethereum, clock, parcel)
    assert receipt.success, receipt.error
    block = ethereum.blocks[receipt.block_height]
    (tx,) = block.transactions
    assert block.body_size_bytes() == (
        len(tx.signing_bytes()) + len(tx.signature) + len(bundle.code)
    )


# ----------------------------------------------------------------------
# Edge cases that guard the checks which replaced the rebuilds
# ----------------------------------------------------------------------


def test_a_cross_flavour_move_installs_a_live_trie_of_the_target_flavour():
    # Guards the flavour trap: VP's tree is the *source's* flavour, so
    # reusing it on an IAVL target would commit a Patricia root.
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    parcel = deploy(ethereum, clock, Parcel, puts=[(1, 10), (2, 20), (3, 30)])
    _bundle, receipt = move(ethereum, burrow, clock, parcel)
    assert receipt.success, receipt.error
    produce(burrow, clock)
    live = burrow.state._live_storage_trie(parcel)
    storage = burrow.state.require_contract(parcel).storage
    assert type(live) is IAVLTree
    assert live.root_hash == compute_storage_root(IAVLTree, storage)
    assert burrow.state.committed_storage_root(parcel) == live.root_hash


def test_a_gc_wipe_since_the_last_commit_makes_the_source_refuse_to_prove():
    # Guards against checking the captured leaf with the storage root of
    # the last commit: that root is stale until the wipe is committed.
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    parcel = deploy(burrow, clock, Parcel, puts=[(1, 10)])
    inclusion = lock(burrow, ethereum, clock, parcel)
    burrow.state.wipe_storage(parcel)
    assert burrow.state.committed_storage_root(parcel) != compute_storage_root(IAVLTree, {})
    with pytest.raises(ProofError, match=f"no longer matches height {inclusion}"):
        burrow.prove_contract_at(parcel, inclusion)


@pytest.mark.parametrize("direction", ["b2e", "e2b", "b2b"])
def test_a_contract_with_empty_storage_moves(direction):
    # Guards the falsy empty tree: VP's tree for no slots has len() 0, so
    # a truthiness test would read a verified bundle as a failed one.
    if direction == "b2b":
        source, target = burrow_pair()
    else:
        burrow, ethereum = make_chain_pair()
        source, target = (ethereum, burrow) if direction == "e2b" else (burrow, ethereum)
    clock = ManualClock()
    parcel = deploy(source, clock, Parcel)
    assert source.state.require_contract(parcel).storage == {}
    _bundle, receipt = move(source, target, clock, parcel)
    assert receipt.success, receipt.error
    assert target.location_of(parcel) == target.chain_id
    assert target.state.require_contract(parcel).storage == {}


def test_a_bundle_carrying_an_empty_slot_value_is_refused_before_any_build(monkeypatch):
    # A committed storage never holds an empty value, so VP refuses one
    # outright; recreation may then trust every slot it loads.
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    parcel = deploy(burrow, clock, Parcel, puts=[(1, 10)])
    bundle = burrow.prove_contract_at(parcel, lock(burrow, ethereum, clock, parcel))
    padded = dataclasses.replace(bundle, storage={**bundle.storage, b"\x00" * 32: b""})
    builds = count_builds(monkeypatch)
    receipt = run_tx(ethereum, clock, BOB, Move2Payload(padded))
    assert not receipt.success
    assert "ProofError" in receipt.error
    assert builds == []
    assert ethereum.state.contract(parcel) is None
