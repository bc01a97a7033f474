"""The generic Merkle-proof attestation path (§V-A's "more generic
method") end to end.

Two SAccounts of a Burrow-chain SCoin move to the Ethereum chain and
transfer tokens there by *proving* sibling origin against the parent
chain's p-confirmed headers — no CREATE2 recomputation involved.
"""

import dataclasses

import pytest

from repro.apps.scoin import SAccount, SCoin
from repro.chain.tx import CallPayload, DeployPayload
from repro.core.proofs import RemoteStateProof
from repro.errors import ProofError
from repro.merkle.proof import MembershipProof
from tests.helpers import (
    ALICE,
    BOB,
    CAROL,
    ManualClock,
    full_move,
    make_chain_pair,
    produce,
    run_tx,
)


@pytest.fixture
def proved_world():
    burrow, ethereum = make_chain_pair()
    clock = ManualClock()
    token = run_tx(burrow, clock, ALICE, DeployPayload(code_hash=SCoin.CODE_HASH)).return_value
    acc_a, salt_a = run_tx(burrow, clock, ALICE, CallPayload(token, "new_account")).return_value
    acc_b, salt_b = run_tx(burrow, clock, BOB, CallPayload(token, "new_account")).return_value
    run_tx(burrow, clock, ALICE, CallPayload(token, "mint_to", (acc_a, 100)))
    assert full_move(burrow, ethereum, clock, ALICE, acc_a).success
    assert full_move(burrow, ethereum, clock, BOB, acc_b).success

    # Prove the parent's accounts map at the head (it stays unlocked, so
    # no older height is servable), then wait until the Ethereum chain's
    # light client has p-confirmed that height.
    height = burrow.height
    proof_a = burrow.prove_storage_entry(token, SCoin.account_map_key(salt_a), height)
    proof_b = burrow.prove_storage_entry(token, SCoin.account_map_key(salt_b), height)
    produce(burrow, clock, burrow.params.confirmation_depth + burrow.params.state_root_lag)
    return burrow, ethereum, clock, token, (acc_a, salt_a, proof_a), (acc_b, salt_b, proof_b)


def test_proof_attested_transfer(proved_world):
    _burrow, ethereum, clock, _token, a, b = proved_world
    acc_a, salt_a, proof_a = a
    acc_b, salt_b, proof_b = b
    receipt = run_tx(
        ethereum, clock, ALICE,
        CallPayload(
            acc_a, "transfer_tokens_with_proofs",
            (acc_b, 40, salt_b, proof_b, salt_a, proof_a),
        ),
    )
    assert receipt.success, receipt.error
    assert ethereum.view(acc_a, "token_balance") == 60
    assert ethereum.view(acc_b, "token_balance") == 40


def test_forged_account_fails_proof_attestation(proved_world):
    # A hand-deployed SAccount cannot present a valid membership proof
    # (it is not in the parent's accounts map).
    _burrow, ethereum, clock, _token, a, b = proved_world
    acc_a, salt_a, proof_a = a
    _acc_b, salt_b, proof_b = b
    forged = run_tx(
        ethereum, clock, CAROL,
        DeployPayload(code_hash=SAccount.CODE_HASH, args=(CAROL.address, salt_b)),
    ).return_value
    receipt = run_tx(
        ethereum, clock, ALICE,
        CallPayload(
            acc_a, "transfer_tokens_with_proofs",
            (forged, 40, salt_b, proof_b, salt_a, proof_a),
        ),
    )
    assert not receipt.success
    assert "different account" in receipt.error


def test_tampered_remote_proof_rejected(proved_world):
    _burrow, ethereum, clock, _token, a, b = proved_world
    acc_a, salt_a, proof_a = a
    acc_b, salt_b, proof_b = b
    # Claim the proof is for a different (higher) height: VS fails.
    lied = dataclasses.replace(proof_b, height=proof_b.height + 1)
    receipt = run_tx(
        ethereum, clock, ALICE,
        CallPayload(
            acc_a, "transfer_tokens_with_proofs",
            (acc_b, 40, salt_b, lied, salt_a, proof_a),
        ),
    )
    assert not receipt.success
    assert "remote proof rejected" in receipt.error


def with_proof_field(proof, name, value):
    """``proof`` with one field of its account or storage proof (or one
    of its own fields) replaced by a malformed value."""
    if "." not in name:
        return dataclasses.replace(proof, **{name: value})
    which, field = name.split(".")
    inner = getattr(proof, which)
    fields = dict(key=inner.key, value=inner.value, leaf_prefix=inner.leaf_prefix, steps=inner.steps)
    return dataclasses.replace(proof, **{which: MembershipProof(**{**fields, field: value})})


MALFORMED = [
    ("storage_proof.steps", ((1, 2),)),  # steps that are not byte pairs
    ("storage_proof.value", 7),
    ("storage_proof", None),
    ("account_proof.value", 7),  # the account leaf
    ("container", 7),
    ("height", "3"),
    ("height", [3]),
    ("chain_id", [1]),
]


@pytest.mark.parametrize(
    "name, value", MALFORMED,
    ids=[
        "storage-steps", "storage-value", "no-storage-proof", "int-leaf", "int-container",
        "str-height", "list-height", "list-chain-id",
    ],
)
def test_malformed_remote_proof_is_refused_not_raised(proved_world, name, value):
    _burrow, ethereum, _clock, _token, a, _b = proved_world
    malformed = with_proof_field(a[2], name, value)
    assert malformed.verify(ethereum.light_client) is False


def test_malformed_storage_steps_revert_as_a_rejected_proof(proved_world):
    # Only the storage proof's key and value are signed, so these steps
    # reach the light-client builtin inside a valid transaction.
    _burrow, ethereum, clock, _token, a, b = proved_world
    acc_a, salt_a, proof_a = a
    acc_b, salt_b, proof_b = b
    malformed = with_proof_field(proof_b, "storage_proof.steps", ((1, 2),))
    receipt = run_tx(
        ethereum, clock, ALICE,
        CallPayload(
            acc_a, "transfer_tokens_with_proofs",
            (acc_b, 40, salt_b, malformed, salt_a, proof_a),
        ),
    )
    assert not receipt.success
    assert "remote proof rejected" in receipt.error


def test_wrong_salt_rejected(proved_world):
    _burrow, ethereum, clock, _token, a, b = proved_world
    acc_a, salt_a, proof_a = a
    acc_b, salt_b, proof_b = b
    receipt = run_tx(
        ethereum, clock, ALICE,
        CallPayload(
            acc_a, "transfer_tokens_with_proofs",
            (acc_b, 40, salt_b + 7, proof_b, salt_a, proof_a),
        ),
    )
    assert not receipt.success
    assert "different salt" in receipt.error


def test_prove_storage_entry_validates_inputs():
    burrow, _ethereum = make_chain_pair()
    clock = ManualClock()
    token = run_tx(burrow, clock, ALICE, DeployPayload(code_hash=SCoin.CODE_HASH)).return_value
    with pytest.raises(ProofError, match="no storage entry"):
        burrow.prove_storage_entry(token, b"\x00" * 32, burrow.height)
    from repro.crypto.keys import KeyPair

    with pytest.raises(ProofError, match="no contract"):
        burrow.prove_storage_entry(
            KeyPair.from_name("ghost").address, b"\x00" * 32, burrow.height
        )


def test_remote_proof_verifies_directly_with_light_client(proved_world):
    burrow, ethereum, _clock, token, a, _b = proved_world
    _acc_a, _salt_a, proof_a = a
    assert proof_a.verify(ethereum.light_client)
    # The source chain's own light client does not track itself.
    assert not proof_a.verify(burrow.light_client)