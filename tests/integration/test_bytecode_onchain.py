"""Raw bytecode contracts on-chain, moving between chains via OP_MOVE.

The deepest version of assumption (b): the same bytecode runs on both
chain flavours, the contract's own code executes ``OP_MOVE`` (no
Solidity-level hook involved), and the standard Move2 proof recreates
code + storage on the target chain.
"""

import pytest

from repro.chain.tx import BytecodeCallPayload, DeployBytecodePayload, Move2Payload
from repro.crypto.keys import Address
from repro.vm.assembler import assemble
from tests.helpers import ALICE, BOB, ManualClock, make_chain_pair, produce, run_tx

# A movable counter: storage slot 0 = count, slot 1 = owner.
# calldata word 0 selects: 1=increment, 2=read, 3=move(word 1 = target
# chain, owner only), 4=claim ownership (once).
COUNTER_SOURCE = """
    PUSH1 0
    CALLDATALOAD
    DUP1
    PUSH1 1
    EQ
    PUSH @inc
    JUMPI
    DUP1
    PUSH1 2
    EQ
    PUSH @read
    JUMPI
    DUP1
    PUSH1 3
    EQ
    PUSH @move
    JUMPI
    DUP1
    PUSH1 4
    EQ
    PUSH @init
    JUMPI
    PUSH1 0
    PUSH1 0
    REVERT

    inc:
    PUSH1 0
    SLOAD
    PUSH1 1
    ADD
    PUSH1 0
    SSTORE
    STOP

    read:
    PUSH1 0
    SLOAD
    PUSH1 0
    MSTORE
    PUSH1 32
    PUSH1 0
    RETURN

    init:
    PUSH1 1
    SLOAD
    ISZERO
    PUSH @doinit
    JUMPI
    PUSH1 0
    PUSH1 0
    REVERT
    doinit:
    CALLER
    PUSH1 1
    SSTORE
    STOP

    move:
    PUSH1 1
    SLOAD
    CALLER
    EQ
    PUSH @domove
    JUMPI
    PUSH1 0
    PUSH1 0
    REVERT
    domove:
    PUSH1 32
    CALLDATALOAD
    MOVE
    STOP
"""

COUNTER_CODE = assemble(COUNTER_SOURCE)


def selector(n, arg=None):
    data = n.to_bytes(32, "big")
    if arg is not None:
        data += arg.to_bytes(32, "big")
    return data


@pytest.fixture
def world():
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    receipt = run_tx(burrow, clock, ALICE, DeployBytecodePayload(code=COUNTER_CODE))
    assert receipt.success, receipt.error
    counter = receipt.return_value
    assert run_tx(burrow, clock, ALICE, BytecodeCallPayload(counter, selector(4))).success
    return burrow, ethereum, clock, counter


def read_count(chain, clock, counter):
    receipt = run_tx(chain, clock, BOB, BytecodeCallPayload(counter, selector(2)))
    assert receipt.success, receipt.error
    return int.from_bytes(receipt.return_value, "big")


def test_bytecode_deploy_and_call(world):
    burrow, _ethereum, clock, counter = world
    assert run_tx(burrow, clock, ALICE, BytecodeCallPayload(counter, selector(1))).success
    assert run_tx(burrow, clock, BOB, BytecodeCallPayload(counter, selector(1))).success
    assert read_count(burrow, clock, counter) == 2


def test_unknown_selector_reverts(world):
    burrow, _ethereum, clock, counter = world
    receipt = run_tx(burrow, clock, ALICE, BytecodeCallPayload(counter, selector(9)))
    assert not receipt.success


def test_ownership_claim_only_once(world):
    burrow, _ethereum, clock, counter = world
    receipt = run_tx(burrow, clock, BOB, BytecodeCallPayload(counter, selector(4)))
    assert not receipt.success  # ALICE claimed in the fixture


def test_only_owner_triggers_op_move(world):
    burrow, ethereum, clock, counter = world
    refused = run_tx(
        burrow, clock, BOB, BytecodeCallPayload(counter, selector(3, ethereum.chain_id))
    )
    assert not refused.success
    assert not burrow.state.is_locked(counter)


def test_full_bytecode_move_roundtrip(world):
    burrow, ethereum, clock, counter = world
    run_tx(burrow, clock, ALICE, BytecodeCallPayload(counter, selector(1)))
    run_tx(burrow, clock, ALICE, BytecodeCallPayload(counter, selector(1)))

    # The contract moves ITSELF: a plain call whose code runs OP_MOVE.
    moved = run_tx(
        burrow, clock, ALICE, BytecodeCallPayload(counter, selector(3, ethereum.chain_id))
    )
    assert moved.success, moved.error
    assert burrow.state.is_locked(counter)
    # Locked: every bytecode call aborts at the source now.
    refused = run_tx(burrow, clock, BOB, BytecodeCallPayload(counter, selector(2)))
    assert not refused.success
    assert "ContractLocked" in refused.error

    # Standard Move2 with the standard proof bundle.
    inclusion = moved.block_height
    while burrow.height < burrow.proof_ready_height(inclusion):
        produce(burrow, clock)
    bundle = burrow.prove_contract_at(counter, inclusion)
    receipt = run_tx(ethereum, clock, BOB, Move2Payload(bundle=bundle))
    assert receipt.success, receipt.error

    # Same bytecode, same state, other chain — and it keeps working.
    assert read_count(ethereum, clock, counter) == 2
    assert run_tx(ethereum, clock, ALICE, BytecodeCallPayload(counter, selector(1))).success
    assert read_count(ethereum, clock, counter) == 3
    # Owner survives the move: BOB still cannot move it.
    refused = run_tx(
        ethereum, clock, BOB, BytecodeCallPayload(counter, selector(3, burrow.chain_id))
    )
    assert not refused.success


def test_move1_transaction_rejected_for_bytecode_contracts(world):
    from repro.chain.tx import Move1Payload

    burrow, ethereum, clock, counter = world
    receipt = run_tx(
        burrow, clock, ALICE, Move1Payload(contract=counter, target_chain=ethereum.chain_id)
    )
    assert not receipt.success
    assert "OP_MOVE" in receipt.error


def test_bytecode_deploy_charges_code_deposit():
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    receipt_b = run_tx(burrow, clock, ALICE, DeployBytecodePayload(code=COUNTER_CODE))
    receipt_e = run_tx(ethereum, clock, ALICE, DeployBytecodePayload(code=COUNTER_CODE))
    # Burrow: no per-byte deposit; Ethereum: 200/byte.
    assert receipt_e.gas_used - receipt_b.gas_used == 200 * len(COUNTER_CODE)


def test_create2_style_bytecode_address():
    from repro.crypto.hashing import keccak
    from repro.crypto.keys import create2_address

    burrow, _ethereum = make_chain_pair()
    clock = ManualClock()
    receipt = run_tx(
        burrow, clock, ALICE, DeployBytecodePayload(code=COUNTER_CODE, salt=9)
    )
    assert receipt.return_value == create2_address(
        burrow.chain_id, ALICE.address, 9, keccak(COUNTER_CODE)
    )


def test_balance_reads_the_low_160_bits_of_its_word():
    # The EVM's BALANCE takes an address from the low 160 bits of the
    # word; a word of 32 0xff bytes names the address of 20 0xff bytes.
    burrow, _ethereum = make_chain_pair()
    clock = ManualClock()
    rich = Address(b"\xff" * 20)
    burrow.fund({rich: 123_456})
    code = assemble(f"PUSH32 0x{'ff' * 32}\nBALANCE\nPUSH1 0\nSSTORE\nSTOP")
    probe = run_tx(burrow, clock, ALICE, DeployBytecodePayload(code=code)).return_value
    receipt = run_tx(burrow, clock, ALICE, BytecodeCallPayload(probe, b""))
    assert receipt.success, receipt.error
    stored = burrow.state.storage_get(probe, (0).to_bytes(32, "big"))
    assert int.from_bytes(stored, "big") == 123_456
    faults = burrow.telemetry.metrics.counter(
        "chain_tx_faults_total", chain=burrow.chain_id, kind="OverflowError"
    )
    assert faults.value == 0
