"""Integration tests: the Move protocol end to end (Algorithm 1).

Covers the paper's core claims: consistent migration between a
Tendermint/Burrow-flavoured and a PoW/Ethereum-flavoured chain, the
lock semantics, confirmation-depth gating, replay prevention (Fig. 2),
third-party completion of dangling moves, and round trips.
"""

import pytest

from repro.chain.tx import CallPayload, Move1Payload, Move2Payload, sign_transaction
from repro.errors import ProofError
from tests.helpers import (
    ALICE,
    BOB,
    CAROL,
    ManualClock,
    StoreContract,
    deploy_store,
    forge_leaf,
    full_move,
    make_chain_pair,
    produce,
    run_tx,
)


@pytest.fixture
def setup():
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    addr = deploy_store(burrow, clock, ALICE)
    receipt = run_tx(burrow, clock, ALICE, CallPayload(addr, "put", (1, 100)))
    assert receipt.success
    return burrow, ethereum, clock, addr


def test_full_move_burrow_to_ethereum(setup):
    burrow, ethereum, clock, addr = setup
    receipt = full_move(burrow, ethereum, clock, ALICE, addr)
    assert receipt.success, receipt.error
    # Active on Ethereum with identical state.
    assert ethereum.location_of(addr) == ethereum.chain_id
    assert ethereum.view(addr, "get_value", 1) == 100
    # Locked on Burrow: L_c names the target chain.
    assert burrow.location_of(addr) == ethereum.chain_id
    assert burrow.state.is_locked(addr)


def test_locked_contract_rejects_writes_allows_reads(setup):
    burrow, ethereum, clock, addr = setup
    receipt = run_tx(
        burrow, clock, ALICE, Move1Payload(contract=addr, target_chain=ethereum.chain_id)
    )
    assert receipt.success
    write = run_tx(burrow, clock, ALICE, CallPayload(addr, "put", (2, 5)))
    assert not write.success
    assert "ContractLocked" in write.error
    # Reads of the locked state remain possible (Section III-B).
    assert burrow.view(addr, "get_value", 1) == 100


def test_move_requires_owner(setup):
    burrow, ethereum, clock, addr = setup
    receipt = run_tx(
        burrow, clock, BOB, Move1Payload(contract=addr, target_chain=ethereum.chain_id)
    )
    assert not receipt.success
    assert "only the owner" in receipt.error
    assert not burrow.state.is_locked(addr)


def test_move2_rejected_before_confirmation_depth(setup):
    burrow, ethereum, clock, addr = setup
    receipt1 = run_tx(
        burrow, clock, ALICE, Move1Payload(contract=addr, target_chain=ethereum.chain_id)
    )
    inclusion = receipt1.block_height
    # Only one extra block: header with the root exists (lag=1) but is
    # not yet p=2 confirmed.
    produce(burrow, clock, 1)
    bundle = burrow.prove_contract_at(addr, inclusion)
    receipt2 = run_tx(ethereum, clock, ALICE, Move2Payload(bundle=bundle))
    assert not receipt2.success
    assert "UnknownRootError" in receipt2.error
    # After enough confirmations the same bundle is accepted.
    while burrow.height < burrow.proof_ready_height(inclusion):
        produce(burrow, clock)
    receipt3 = run_tx(ethereum, clock, ALICE, Move2Payload(bundle=bundle))
    assert receipt3.success, receipt3.error


def test_move2_to_wrong_chain_rejected(setup):
    burrow, ethereum, clock, addr = setup
    receipt1 = run_tx(
        burrow, clock, ALICE, Move1Payload(contract=addr, target_chain=ethereum.chain_id)
    )
    inclusion = receipt1.block_height
    while burrow.height < burrow.proof_ready_height(inclusion):
        produce(burrow, clock)
    bundle = burrow.prove_contract_at(addr, inclusion)
    # Submit the Move2 at the *source* chain: L_c != B (Alg. 1 line 5).
    receipt = run_tx(burrow, clock, ALICE, Move2Payload(bundle=bundle))
    assert not receipt.success
    assert "MoveError" in receipt.error


def test_anyone_can_complete_a_dangling_move(setup):
    # The client that issued Move1 crashes; a third party finishes the
    # move with the public proof (Section III-B).
    burrow, ethereum, clock, addr = setup
    receipt1 = run_tx(
        burrow, clock, ALICE, Move1Payload(contract=addr, target_chain=ethereum.chain_id)
    )
    inclusion = receipt1.block_height
    while burrow.height < burrow.proof_ready_height(inclusion):
        produce(burrow, clock)
    bundle = burrow.prove_contract_at(addr, inclusion)
    receipt = run_tx(ethereum, clock, CAROL, Move2Payload(bundle=bundle))
    assert receipt.success, receipt.error
    assert ethereum.view(addr, "get_value", 1) == 100


def test_replay_attack_rejected(setup):
    # Fig. 2: move B1 -> B2, back to B1, then replay the first Move2.
    burrow, ethereum, clock, addr = setup

    receipt1 = run_tx(
        burrow, clock, ALICE, Move1Payload(contract=addr, target_chain=ethereum.chain_id)
    )
    inclusion = receipt1.block_height
    while burrow.height < burrow.proof_ready_height(inclusion):
        produce(burrow, clock)
    first_bundle = burrow.prove_contract_at(addr, inclusion)
    assert run_tx(ethereum, clock, ALICE, Move2Payload(bundle=first_bundle)).success

    # Mutate on Ethereum, then move back to Burrow.
    assert run_tx(ethereum, clock, ALICE, CallPayload(addr, "put", (1, 999))).success
    back = full_move(ethereum, burrow, clock, ALICE, addr)
    assert back.success, back.error
    assert burrow.view(addr, "get_value", 1) == 999

    # Replaying the original Move2 on Ethereum must fail: its proven
    # move nonce is stale.
    replay = run_tx(ethereum, clock, BOB, Move2Payload(bundle=first_bundle))
    assert not replay.success
    assert "ReplayError" in replay.error
    # And the same bundle twice on the same chain also fails.
    # (covered by the same nonce rule)


def test_round_trip_preserves_state_and_unlocks(setup):
    burrow, ethereum, clock, addr = setup
    assert full_move(burrow, ethereum, clock, ALICE, addr).success
    assert run_tx(ethereum, clock, ALICE, CallPayload(addr, "put", (2, 7))).success
    assert full_move(ethereum, burrow, clock, ALICE, addr).success
    # Unlocked and fully functional again at the origin.
    assert not burrow.state.is_locked(addr)
    assert burrow.view(addr, "get_value", 1) == 100
    assert burrow.view(addr, "get_value", 2) == 7
    assert run_tx(burrow, clock, ALICE, CallPayload(addr, "put", (3, 1))).success


def test_contract_balance_moves_with_it(setup):
    burrow, ethereum, clock, addr = setup
    burrow.fund({ALICE.address: 1_000})
    # Give the contract native currency via a transfer payload.
    from repro.chain.tx import TransferPayload

    assert run_tx(burrow, clock, ALICE, TransferPayload(to=addr, amount=250)).success
    assert burrow.balance_of(addr) == 250
    receipt = full_move(burrow, ethereum, clock, ALICE, addr)
    assert receipt.success, receipt.error
    assert ethereum.balance_of(addr) == 250


def test_tampered_bundle_rejected(setup):
    burrow, ethereum, clock, addr = setup
    receipt1 = run_tx(
        burrow, clock, ALICE, Move1Payload(contract=addr, target_chain=ethereum.chain_id)
    )
    inclusion = receipt1.block_height
    while burrow.height < burrow.proof_ready_height(inclusion):
        produce(burrow, clock)
    bundle = burrow.prove_contract_at(addr, inclusion)
    # Inflate the proven leaf's balance: its root is unknown, VS fails.
    forged = forge_leaf(bundle, balance=10_000_000)
    receipt = run_tx(ethereum, clock, BOB, Move2Payload(bundle=forged))
    assert not receipt.success
    assert "ProofError" in receipt.error or "UnknownRootError" in receipt.error


def test_proof_of_unlocked_contract_changes_fails(setup):
    # prove_contract_at refuses when live state drifted from the
    # historical root (only locked contracts are safely provable).
    burrow, ethereum, clock, addr = setup
    height = burrow.height
    assert run_tx(burrow, clock, ALICE, CallPayload(addr, "put", (1, 101))).success
    produce(burrow, clock, 3)
    with pytest.raises(ProofError):
        burrow.prove_contract_at(addr, height)


def test_move1_to_self_rejected(setup):
    burrow, _ethereum, clock, addr = setup
    receipt = run_tx(
        burrow, clock, ALICE, Move1Payload(contract=addr, target_chain=burrow.chain_id)
    )
    assert not receipt.success


def test_double_move1_rejected(setup):
    burrow, ethereum, clock, addr = setup
    assert run_tx(
        burrow, clock, ALICE, Move1Payload(contract=addr, target_chain=ethereum.chain_id)
    ).success
    again = run_tx(
        burrow, clock, ALICE, Move1Payload(contract=addr, target_chain=ethereum.chain_id)
    )
    assert not again.success
    assert "not active here" in again.error
