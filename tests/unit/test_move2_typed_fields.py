"""A Move2 installs only what the proven leaf says, as ``int``/``bytes``.

The bundle carries no balance, ``L_c`` or move nonce of its own: the
target reads all three from the decoded leaf, which yields ``int``s and
nothing else.  A slot value must be ``bytes`` to be committed at all;
anything else is refused by ``VP`` as a ``ProofError``, never installed
and never a ``ContractFault``.
"""

import dataclasses

from repro.chain.tx import CallPayload, Move1Payload, Move2Payload
from repro.statedb.state import decode_contract_leaf
from tests.helpers import ALICE, BOB, ManualClock, deploy_store, make_chain_pair, produce, run_tx


def honest_bundle():
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    store = deploy_store(burrow, clock, ALICE)
    assert run_tx(burrow, clock, ALICE, CallPayload(store, "put", (1, 42))).success
    inclusion = run_tx(burrow, clock, ALICE, Move1Payload(store, ethereum.chain_id)).block_height
    while burrow.height < burrow.proof_ready_height(inclusion):
        produce(burrow, clock)
    return ethereum, clock, store, burrow.prove_contract_at(store, inclusion)


def test_move_nonce_and_balance_are_installed_from_the_leaf_as_int():
    ethereum, clock, store, bundle = honest_bundle()
    assert not {"balance", "location", "move_nonce"} & {
        field.name for field in dataclasses.fields(bundle)
    }
    leaf = decode_contract_leaf(bundle.account_proof.value)
    assert (leaf.move_nonce, leaf.balance, leaf.location) == (1, 0, ethereum.chain_id)
    receipt = run_tx(ethereum, clock, BOB, Move2Payload(bundle))
    assert receipt.success, receipt.error
    record = ethereum.state.contract(store)
    assert type(record.move_nonce) is int and type(record.balance) is int
    assert (record.move_nonce, record.balance) == (leaf.move_nonce, leaf.balance)


def test_int_slot_values_are_a_proof_error_not_a_contract_fault():
    ethereum, clock, store, bundle = honest_bundle()
    forged = dataclasses.replace(bundle, storage={key: 42 for key in bundle.storage})
    receipt = run_tx(ethereum, clock, BOB, Move2Payload(forged))
    assert not receipt.success
    assert receipt.error == "ProofError: proof bundle fails verification (VP failed)"
    assert ethereum.state.contract(store) is None


def test_a_proof_height_that_is_not_an_int_is_a_proof_error():
    ethereum, clock, store, bundle = honest_bundle()
    for height in (str(bundle.proof_height), [bundle.proof_height], float(bundle.proof_height)):
        forged = dataclasses.replace(bundle, proof_height=height)
        receipt = run_tx(ethereum, clock, BOB, Move2Payload(forged))
        assert receipt.error == "ProofError: proof bundle fails verification (VP failed)"
    assert ethereum.state.contract(store) is None
