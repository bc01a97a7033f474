"""Units for the replica-update wire format and verification rules.

Updates are built by a real source chain (so the account proofs are
the ones it captured at commit, exactly as for Move2) and verified
against a real peer's light client — the exact trust path a replication relay
exercises, minus the relay.
"""

import dataclasses

import pytest

from repro.crypto.hashing import keccak
from repro.errors import ProofError, UnknownRootError
from repro.statedb.state import decode_contract_leaf
from tests.helpers import (
    ALICE,
    BOB,
    CallPayload,
    ManualClock,
    deploy_store,
    make_chain_pair,
    produce,
    run_tx,
)


def _provable(chain) -> int:
    """The newest height whose proof header is p-confirmed on a peer
    that has seen every header (what a relay computes as ``desired``)."""
    return (
        chain.height
        - chain.params.confirmation_depth
        - chain.params.state_root_lag
    )


def _replicated_store():
    """A StoreContract on burrow (chain 1), replication-enabled, with
    one committed write and enough blocks for a provable height."""
    burrow, ethereum, clock = *make_chain_pair(), ManualClock()
    address = deploy_store(burrow, clock, ALICE)
    burrow.enable_replication(address)
    receipt = run_tx(burrow, clock, ALICE, CallPayload(address, "put", (1, 42)))
    assert receipt.success, receipt.error
    # Confirmation headroom: the proof header must be p-confirmed on
    # the peer (instant relays keep the peer's store at our head).
    produce(burrow, clock, 3)
    return burrow, ethereum, clock, address


def test_full_update_verifies_and_yields_the_committed_image():
    burrow, ethereum, clock, address = _replicated_store()
    update = burrow.build_replica_update(address, upto=_provable(burrow))
    assert update.is_full
    assert update.source_chain == 1
    assert update.proof_height == update.state_height + burrow.params.state_root_lag
    leaf, tree = update.verify(
        ethereum.light_client, burrow.params.tree_factory
    )
    assert leaf.location == burrow.chain_id
    assert leaf.code_hash == keccak(update.code)
    record = burrow.state.contract(address)
    assert dict(tree.items()) == dict(record.storage)


def test_delta_update_applies_on_top_of_the_base_image():
    burrow, ethereum, clock, address = _replicated_store()
    first = burrow.build_replica_update(address, upto=_provable(burrow))
    _leaf, base_tree = first.verify(ethereum.light_client, burrow.params.tree_factory)
    base = dict(base_tree.items())

    receipt = run_tx(burrow, clock, ALICE, CallPayload(address, "put", (2, 7)))
    assert receipt.success
    produce(burrow, clock, 3)
    update = burrow.build_replica_update(
        address, since=first.state_height, upto=_provable(burrow)
    )
    assert not update.is_full
    leaf, tree = update.verify(
        ethereum.light_client, burrow.params.tree_factory, base_image=base
    )
    assert dict(tree.items()) == dict(burrow.state.contract(address).storage)
    assert leaf.storage_root != first.account_proof.value[81:113]


def test_delta_update_without_base_image_is_rejected():
    burrow, ethereum, clock, address = _replicated_store()
    first = burrow.build_replica_update(address, upto=_provable(burrow))
    first.verify(ethereum.light_client, burrow.params.tree_factory)
    run_tx(burrow, clock, ALICE, CallPayload(address, "put", (3, 9)))
    produce(burrow, clock, 3)
    update = burrow.build_replica_update(
        address, since=first.state_height, upto=_provable(burrow)
    )
    with pytest.raises(ProofError, match="without a base image"):
        update.verify(ethereum.light_client, burrow.params.tree_factory)


def test_torn_image_cannot_reproduce_the_proven_root():
    burrow, ethereum, clock, address = _replicated_store()
    update = burrow.build_replica_update(address, upto=_provable(burrow))
    torn = dict(update.image)
    victim = next(iter(torn))
    torn[victim] = b"\x00tampered"
    forged = dataclasses.replace(update, image=torn)
    with pytest.raises(ProofError, match="does not reproduce"):
        forged.verify(ethereum.light_client, burrow.params.tree_factory)


def test_tampered_code_is_rejected_against_the_proven_hash():
    burrow, ethereum, clock, address = _replicated_store()
    update = burrow.build_replica_update(address, upto=_provable(burrow))
    forged = dataclasses.replace(update, code=b"class Evil: pass")
    with pytest.raises(ProofError, match="code"):
        forged.verify(ethereum.light_client, burrow.params.tree_factory)


def test_unconfirmed_height_fails_vs_not_integrity():
    """An update at the newest height is not yet p-confirmed on the
    peer: VS must fail closed (UnknownRootError), distinct from the
    integrity failures that halt a mirror."""
    burrow, ethereum, clock, address = _replicated_store()
    newest = burrow.height - burrow.params.state_root_lag
    update = burrow.build_replica_update(address, upto=newest)
    with pytest.raises(UnknownRootError):
        update.verify(ethereum.light_client, burrow.params.tree_factory)


def test_update_for_a_foreign_light_client_fails_vs():
    """A verifier that never observed the source chain rejects the
    update outright."""
    burrow, _ethereum, clock, address = _replicated_store()
    lonely, _peer = make_chain_pair()  # fresh world, no burrow headers
    update = burrow.build_replica_update(address, upto=_provable(burrow))
    with pytest.raises(UnknownRootError):
        update.verify(lonely.light_client, burrow.params.tree_factory)


def test_size_bytes_counts_payload_code_and_proof():
    burrow, _ethereum, clock, address = _replicated_store()
    update = burrow.build_replica_update(address, upto=_provable(burrow))
    slots = sum(len(k) + len(v) for k, v in update.image.items())
    expected = slots + len(update.code) + update.account_proof.size_bytes()
    assert update.size_bytes() == expected


def test_decode_contract_leaf_rejects_foreign_shapes():
    with pytest.raises(ProofError):
        decode_contract_leaf(b"A" + b"\x00" * 112)  # account leaf tag
    with pytest.raises(ProofError):
        decode_contract_leaf(b"C" + b"\x00" * 40)  # truncated


def test_decode_contract_leaf_roundtrips_the_proven_fields():
    burrow, _ethereum, clock, address = _replicated_store()
    update = burrow.build_replica_update(address, upto=_provable(burrow))
    leaf = decode_contract_leaf(update.account_proof.value)
    record = burrow.state.contract(address)
    assert leaf.balance == record.balance
    assert leaf.location == burrow.chain_id
    assert leaf.move_nonce == record.move_nonce
    assert leaf.code_hash == record.code_hash
