"""Unit tests for the Chain facade: blocks, receipts, header roots."""

import pytest

from repro.chain.block import transactions_root
from repro.chain.chain import Chain
from repro.chain.params import burrow_params, ethereum_params
from repro.chain.tx import (
    CallPayload,
    DeployPayload,
    Transaction,
    TransferPayload,
    sign_transaction,
)
from repro.crypto.keys import KeyPair
from tests.helpers import ALICE, BOB, ManualClock, StoreContract, deploy_store, produce, run_tx


@pytest.fixture
def burrow():
    return Chain(burrow_params(1))


@pytest.fixture
def ethereum():
    return Chain(ethereum_params(2))


def test_genesis_block(burrow):
    assert burrow.height == 0
    assert burrow.head.header.height == 0
    assert burrow.head.header.proposer == "genesis"


def test_fund_updates_root_and_balance(burrow):
    root_before = burrow.head.header.state_root
    burrow.fund({ALICE.address: 100})
    assert burrow.balance_of(ALICE.address) == 100
    assert burrow.state.committed_root != root_before


def test_transfer_through_block(burrow):
    burrow.fund({ALICE.address: 100})
    clock = ManualClock()
    receipt = run_tx(burrow, clock, ALICE, TransferPayload(to=BOB.address, amount=40))
    assert receipt.success
    assert receipt.block_height == 1
    assert burrow.balance_of(BOB.address) == 40
    assert burrow.balance_of(ALICE.address) == 60


def test_failed_tx_reverts_and_reports(burrow):
    clock = ManualClock()
    receipt = run_tx(burrow, clock, ALICE, TransferPayload(to=BOB.address, amount=40))
    assert not receipt.success
    assert "insufficient" in receipt.error
    assert burrow.balance_of(BOB.address) == 0


def test_signature_verification_enforced(burrow):
    burrow.fund({ALICE.address: 100})
    clock = ManualClock()
    signed = sign_transaction(ALICE, TransferPayload(to=BOB.address, amount=1))
    tx = Transaction(
        signed.sender, signed.public_key, signed.payload, signed.nonce, b"\x00" * 32
    )
    assert not tx.verify()
    burrow.submit(tx)
    produce(burrow, clock)
    assert not burrow.receipts[tx.tx_id].success
    assert "signature" in burrow.receipts[tx.tx_id].error


def test_block_respects_max_txs():
    params = burrow_params(7, max_block_txs=2)
    chain = Chain(params)
    chain.fund({ALICE.address: 100})
    for i in range(5):
        chain.submit(sign_transaction(ALICE, TransferPayload(to=BOB.address, amount=1)))
    block = chain.produce_block(5.0)
    assert len(block.transactions) == 2
    assert len(chain.mempool) == 3


def test_duplicate_submit_rejected(burrow):
    tx = sign_transaction(ALICE, TransferPayload(to=BOB.address, amount=1))
    assert burrow.submit(tx)
    assert not burrow.submit(tx)


def test_header_state_root_lag_burrow(burrow):
    # Burrow: header n carries the post-state root of block n-1.
    burrow.fund({ALICE.address: 100})
    clock = ManualClock()
    run_tx(burrow, clock, ALICE, TransferPayload(to=BOB.address, amount=1))
    produce(burrow, clock)
    h1 = burrow.blocks[1].header
    h2 = burrow.blocks[2].header
    assert h1.state_root == burrow._post_roots[0]
    assert h2.state_root == burrow._post_roots[1]


def test_header_state_root_immediate_ethereum(ethereum):
    ethereum.fund({ALICE.address: 100})
    clock = ManualClock()
    run_tx(ethereum, clock, ALICE, TransferPayload(to=BOB.address, amount=1))
    h1 = ethereum.blocks[1].header
    assert h1.state_root == ethereum._post_roots[1]


def test_proof_height_helpers():
    burrow = Chain(burrow_params(1))
    ethereum = Chain(ethereum_params(2))
    # Burrow: lag 1 + depth 1 = the paper's two-block wait — a tx at
    # height n is provable to peers once head >= n+2.
    assert burrow.proof_header_height(10) == 11
    assert burrow.proof_ready_height(10) == 12
    # Ethereum: lag 0, p 6 -> head >= n+6.
    assert ethereum.proof_header_height(10) == 10
    assert ethereum.proof_ready_height(10) == 16


def test_wait_for_fires_on_inclusion_and_immediately(burrow):
    burrow.fund({ALICE.address: 10})
    clock = ManualClock()
    tx = sign_transaction(ALICE, TransferPayload(to=BOB.address, amount=1))
    seen = []
    burrow.wait_for(tx.tx_id, seen.append)
    burrow.submit(tx)
    produce(burrow, clock)
    assert len(seen) == 1 and seen[0].success
    # Already-included: callback fires synchronously.
    burrow.wait_for(tx.tx_id, seen.append)
    assert len(seen) == 2


def test_subscribe_and_unsubscribe(burrow):
    clock = ManualClock()
    calls = []

    def listener(block, receipts):
        calls.append(block.height)

    burrow.subscribe(listener)
    produce(burrow, clock, 2)
    burrow.unsubscribe(listener)
    produce(burrow, clock)
    assert calls == [1, 2]


def test_deploy_and_view_through_chain(burrow):
    clock = ManualClock()
    addr = deploy_store(burrow, clock, ALICE)
    receipt = run_tx(burrow, clock, ALICE, CallPayload(addr, "put", (3, 30)))
    assert receipt.success
    assert burrow.view(addr, "get_value", 3) == 30
    assert burrow.location_of(addr) == burrow.chain_id


def test_transactions_root_commits_order():
    t1 = sign_transaction(ALICE, TransferPayload(to=BOB.address, amount=1))
    t2 = sign_transaction(ALICE, TransferPayload(to=BOB.address, amount=2))
    assert transactions_root([t1, t2]) != transactions_root([t2, t1])
    assert transactions_root([]) == transactions_root([])


def test_gas_breakdown_in_receipts(burrow):
    clock = ManualClock()
    tx = sign_transaction(ALICE, DeployPayload(code_hash=StoreContract.CODE_HASH))
    tx.meta["gas_category"] = "complete"
    burrow.submit(tx)
    produce(burrow, clock)
    receipt = burrow.receipts[tx.tx_id]
    assert receipt.success
    assert receipt.gas_by_category.get("create", 0) > 0
    assert receipt.gas_by_category.get("complete", 0) > 0  # tx base landed here
    # Burrow charges no per-byte code deposit (Section VIII).
    assert receipt.gas_by_category.get("code_deposit", 0) == 0
