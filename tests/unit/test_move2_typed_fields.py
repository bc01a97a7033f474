"""A Move2 installs only what the proven leaf says, as ``int``/``bytes``.

The leaf encodes ``True`` exactly as it encodes ``1``, so a bundle whose
move nonce or balance is a ``bool`` folds to the same root as the honest
one; and a slot value must be ``bytes`` to be committed at all.  Both
are refused by ``VP`` as a ``ProofError``, never installed and never a
``ContractFault``.
"""

import dataclasses

from repro.chain.tx import CallPayload, Move1Payload, Move2Payload
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


def test_bool_move_nonce_and_balance_are_refused_and_never_installed():
    ethereum, clock, store, bundle = honest_bundle()
    assert (bundle.move_nonce, bundle.balance) == (1, 0)
    forged = dataclasses.replace(bundle, move_nonce=True, balance=False)
    receipt = run_tx(ethereum, clock, BOB, Move2Payload(forged))
    assert not receipt.success
    assert receipt.error.startswith("ProofError: ")
    assert ethereum.state.contract(store) is None

    receipt = run_tx(ethereum, clock, BOB, Move2Payload(bundle))
    assert receipt.success, receipt.error
    record = ethereum.state.contract(store)
    assert type(record.move_nonce) is int and type(record.balance) is int


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
