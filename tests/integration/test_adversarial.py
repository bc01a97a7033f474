"""Adversarial / failure-injection scenarios for the Move protocol.

Beyond the happy path: forged state on a chain the light client never
confirmed, proofs targeting the wrong heights, gas exhaustion inside
Move2, duplicate Move2 races in one block, and the trust boundary of
the header relay.
"""

import dataclasses

import pytest

from repro.chain.chain import Chain
from repro.chain.params import burrow_params
from repro.chain.tx import (
    CallPayload,
    Move1Payload,
    Move2Payload,
    Transaction,
    sign_transaction,
)
from repro.core.registry import ChainRegistry
from repro.ibc.headers import connect_chains
from repro.statedb.state import decode_contract_leaf
from tests.helpers import (
    ALICE,
    BOB,
    ManualClock,
    StoreContract,
    deploy_store,
    forge_leaf,
    make_chain_pair,
    produce,
    run_tx,
)


def prepare_move(burrow, ethereum, clock):
    addr = deploy_store(burrow, clock, ALICE)
    run_tx(burrow, clock, ALICE, CallPayload(addr, "put", (1, 100)))
    receipt = run_tx(
        burrow, clock, ALICE, Move1Payload(contract=addr, target_chain=ethereum.chain_id)
    )
    inclusion = receipt.block_height
    while burrow.height < burrow.proof_ready_height(inclusion):
        produce(burrow, clock)
    return addr, inclusion


def test_proof_from_unconfirmed_fork_chain_rejected():
    # An attacker runs a private fork of the source chain (same chain
    # id, richer state) and presents a perfectly self-consistent proof
    # from it.  The honest target's light client only saw the honest
    # chain's headers, so VS fails.
    registry = ChainRegistry()
    honest_params = burrow_params(1)
    honest = Chain(honest_params, registry)
    target = Chain(burrow_params(2), registry)
    connect_chains([honest, target])

    fork_registry = ChainRegistry()
    fork = Chain(burrow_params(1), fork_registry)  # same chain id!
    clock = ManualClock()

    # Honest chain: just produce some blocks so the target tracks it.
    produce(honest, clock, 6)

    # Fork: full, valid-looking move of a contract the honest chain
    # never had.
    addr = deploy_store(fork, clock, ALICE)
    run_tx(fork, clock, ALICE, CallPayload(addr, "put", (1, 999_999)))
    receipt = run_tx(fork, clock, ALICE, Move1Payload(contract=addr, target_chain=2))
    while fork.height < fork.proof_ready_height(receipt.block_height):
        produce(fork, clock)
    forged_bundle = fork.prove_contract_at(addr, receipt.block_height)

    # Self-consistent — but the target never confirmed that root.
    result = run_tx(target, clock, BOB, Move2Payload(bundle=forged_bundle))
    assert not result.success
    assert "UnknownRootError" in result.error
    assert target.state.contract(addr) is None


def test_bundle_with_mismatched_proof_height_rejected():
    burrow, ethereum, = make_chain_pair()
    clock = ManualClock()
    addr, inclusion = prepare_move(burrow, ethereum, clock)
    bundle = burrow.prove_contract_at(addr, inclusion)
    # Claim the proof belongs to a different (also confirmed) height:
    # the root stored in that header differs, so VS fails.
    lied = dataclasses.replace(bundle, proof_height=bundle.proof_height - 1)
    result = run_tx(ethereum, clock, BOB, Move2Payload(bundle=lied))
    assert not result.success


def test_bundle_storage_tampering_rejected():
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    addr, inclusion = prepare_move(burrow, ethereum, clock)
    bundle = burrow.prove_contract_at(addr, inclusion)
    tampered_storage = dict(bundle.storage)
    some_key = next(iter(tampered_storage))
    tampered_storage[some_key] = b"\xff" * 32
    forged = dataclasses.replace(bundle, storage=tampered_storage)
    result = run_tx(ethereum, clock, BOB, Move2Payload(bundle=forged))
    assert not result.success
    assert "ProofError" in result.error


def test_bundle_code_substitution_rejected():
    # Swapping in different (registered) code of the same length must
    # fail: the code hash is committed in the account leaf.  A Move2
    # signs its code by hash, so this also guards that the hash still
    # binds the code: the swap changes the signed bytes (the original
    # signature no longer verifies) and VP refuses the swapped code.
    from repro.apps.store import StateStore

    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    addr, inclusion = prepare_move(burrow, ethereum, clock)
    bundle = burrow.prove_contract_at(addr, inclusion)
    forged = dataclasses.replace(bundle, code=StateStore.CODE)
    signed = sign_transaction(BOB, Move2Payload(bundle=bundle))
    resigned = Transaction(
        signed.sender, signed.public_key, Move2Payload(bundle=forged),
        signed.nonce, signed.signature,
    )
    assert resigned.signing_bytes() != signed.signing_bytes()
    assert not resigned.verify()
    result = run_tx(ethereum, clock, BOB, Move2Payload(bundle=forged))
    assert not result.success
    assert "ProofError" in result.error


def test_move_nonce_inflation_rejected():
    # Claiming a higher nonce (to pre-poison future replays) breaks VS:
    # the nonce lives only in the leaf, which then folds to a root no
    # header commits.
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    addr, inclusion = prepare_move(burrow, ethereum, clock)
    bundle = burrow.prove_contract_at(addr, inclusion)
    leaf = decode_contract_leaf(bundle.account_proof.value)
    forged = forge_leaf(bundle, move_nonce=leaf.move_nonce + 10)
    result = run_tx(ethereum, clock, BOB, Move2Payload(bundle=forged))
    assert not result.success
    assert result.error.startswith("UnknownRootError: ")


def test_out_of_gas_move2_leaves_target_untouched():
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    addr, inclusion = prepare_move(burrow, ethereum, clock)
    bundle = burrow.prove_contract_at(addr, inclusion)
    ethereum.executor.tx_gas_limit = 40_000  # not enough for recreation
    try:
        result = run_tx(ethereum, clock, BOB, Move2Payload(bundle=bundle))
        assert not result.success
        assert "OutOfGas" in result.error
        assert ethereum.state.contract(addr) is None
    finally:
        ethereum.executor.tx_gas_limit = 50_000_000
    # With normal gas the same bundle still works (no poisoning).
    retry = run_tx(ethereum, clock, BOB, Move2Payload(bundle=bundle))
    assert retry.success, retry.error


def test_duplicate_move2_in_same_block_second_aborts():
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    addr, inclusion = prepare_move(burrow, ethereum, clock)
    bundle = burrow.prove_contract_at(addr, inclusion)
    tx1 = sign_transaction(ALICE, Move2Payload(bundle=bundle))
    tx2 = sign_transaction(BOB, Move2Payload(bundle=bundle))
    ethereum.submit(tx1)
    ethereum.submit(tx2)
    produce(ethereum, clock)
    r1 = ethereum.receipts[tx1.tx_id]
    r2 = ethereum.receipts[tx2.tx_id]
    assert r1.success, r1.error
    assert not r2.success
    assert "ReplayError" in r2.error
    # State is the single recreated contract.
    assert ethereum.view(addr, "get_value", 1) == 100


def test_header_relay_is_the_trust_boundary():
    # The light client stores only headers that link to a known parent
    # one height below (genesis excepted) and trusts only the longest
    # branch's p-deep roots; it does not yet verify the source chain's
    # consensus (no commit certificates).  Demonstrate the boundary:
    # headers of an unobserved chain are refused outright.
    from repro.chain.block import GENESIS_PARENT, BlockHeader
    from repro.errors import StateError

    chain = Chain(burrow_params(5))
    rogue = BlockHeader(
        chain_id=99, height=0, parent_hash=GENESIS_PARENT,
        state_root=b"\x00" * 32, txs_root=b"\x00" * 32, timestamp=0.0,
    )
    with pytest.raises(StateError):
        chain.ingest_header(rogue)


def test_move1_reverting_hook_leaves_no_partial_lock():
    # The custom moveTo guard reverts *after* reading state: the whole
    # Move1 must unwind, leaving the contract active and its move nonce
    # untouched.
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    addr = deploy_store(burrow, clock, ALICE)
    before_nonce = burrow.state.contract(addr).move_nonce
    refused = run_tx(
        burrow, clock, BOB,  # not the owner -> hook reverts
        Move1Payload(contract=addr, target_chain=ethereum.chain_id),
    )
    assert not refused.success
    record = burrow.state.contract(addr)
    assert record.location == burrow.chain_id
    assert record.move_nonce == before_nonce
    # Still fully usable.
    assert run_tx(burrow, clock, ALICE, CallPayload(addr, "put", (9, 9))).success
