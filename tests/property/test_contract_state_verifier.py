"""Property: one verifier refuses every tampered claim of a contract state.

A Move2 bundle, a full and a delta replica update and a remote-state
proof each claim "this contract leaf, and these slots, are under a
``p``-confirmed root of the source chain".  Each is built honestly by a
real source chain and verified against a real peer's light client, then
tampered with one way: a byte of the proven leaf; a slot added, removed
or changed; another contract's key; other code; the proof height moved
by one; or a root the verifier does not trust yet.

Every honest input is accepted and every tampered one refused, with the
same kind of refusal at every entry point: ``UnknownRootError`` when the
root fails ``VS``, ``ProofError`` for everything else, and ``False``
from the remote-state proof, which never raises.  Every block of the
source changes its state, so no two heights share a root and a moved
height can never land on the honest one.
"""

import dataclasses
import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.tx import CallPayload, Move1Payload, TransferPayload
from repro.core.move import validate_move2
from repro.errors import ProofError, UnknownRootError
from repro.merkle.proof import MembershipProof
from tests.helpers import ALICE, BOB, ManualClock, deploy_store, make_chain_pair, run_tx

VS_FAILURES = {"leaf_byte", "height_up", "height_down", "unconfirmed"}
STORAGE_TAMPERINGS = ["slot_added", "slot_removed", "slot_changed"]
TAMPERINGS = {
    "move2": ["honest", "leaf_byte", *STORAGE_TAMPERINGS, "wrong_key", "wrong_code",
              "height_up", "height_down", "unconfirmed"],
    "remote": ["honest", "leaf_byte", "slot_changed", "slot_moved", "wrong_key",
               "height_up", "height_down", "unconfirmed"],
}
TAMPERINGS["full"] = TAMPERINGS["delta"] = TAMPERINGS["move2"]


def put(chain, clock, store, key, value):
    assert run_tx(chain, clock, ALICE, CallPayload(store, "put", (key, value))).success


def advance(chain, clock, count=1):
    """Blocks that each change the state, so every height has its own root."""
    for _ in range(count):
        assert run_tx(chain, clock, BOB, TransferPayload(ALICE.address, 1)).success


@functools.lru_cache(maxsize=None)
def world(source_is_burrow):
    burrow, ethereum = make_chain_pair()
    source, target = (burrow, ethereum) if source_is_burrow else (ethereum, burrow)
    lag = source.params.state_root_lag
    clock = ManualClock()
    source.fund({BOB.address: 10**9})
    mover, young, other, mirror = (deploy_store(source, clock, ALICE) for _ in range(4))
    for key, value in ((1, 10), (2, 20), (3, 30)):
        put(source, clock, mover, key, value)
    put(source, clock, other, 7, 70)
    put(source, clock, mirror, 1, 11)
    put(source, clock, mirror, 2, 22)
    source.enable_replication(mirror)
    slot = next(iter(source.state.contract(other).storage))
    remote = source.prove_storage_entry(other, slot, source.height)
    full_height = source.height
    put(source, clock, mirror, 2, 23)  # a changed slot
    put(source, clock, mirror, 5, 55)  # a new slot
    delta_height, delta_image = source.height, dict(source.state.contract(mirror).storage)
    inclusion = run_tx(source, clock, ALICE, Move1Payload(mover, target.chain_id)).block_height
    advance(source, clock, source.proof_ready_height(inclusion) + 1 - source.height)

    honest = {
        "move2": source.prove_contract_at(mover, inclusion),
        "full": source.build_replica_update(mirror, upto=full_height),
        "remote": remote,
    }
    honest["delta"] = source.build_replica_update(mirror, since=full_height, upto=delta_height)
    # The newest state: its root is at most one header deep on the target.
    inclusion = run_tx(source, clock, ALICE, Move1Payload(young, target.chain_id)).block_height
    unconfirmed = {
        "move2": source.prove_contract_at(young, inclusion),
        "full": source.build_replica_update(mirror, upto=source.height - lag),
        "delta": source.build_replica_update(
            mirror, since=full_height, upto=source.height - lag
        ),
        "remote": source.prove_storage_entry(other, slot, source.height),
    }
    assert honest["full"].is_full and not honest["delta"].is_full
    assert not unconfirmed["delta"].is_full
    return {
        "source": source,
        "target": target,
        "honest": honest,
        "unconfirmed": unconfirmed,
        "other": other,
        "mover": mover,
        "delta_image": delta_image,
    }


def verify(w, entry, claim):
    """Run one entry point; its result on acceptance."""
    light_client, factory = w["target"].light_client, w["source"].params.tree_factory
    if entry == "move2":
        return validate_move2(w["target"].state, claim, light_client, w["source"].params, 0)
    if entry == "remote":
        return claim.verify(light_client)
    base = w["honest"]["full"].image if entry == "delta" else None
    return claim.verify(light_client, factory, base_image=base)


def storage_field(entry):
    return {"move2": "storage", "full": "image", "delta": "delta"}[entry]


def tamper(draw, w, entry, kind):
    claim = w["honest"][entry]
    if kind == "honest":
        return claim
    if kind == "unconfirmed":
        return w["unconfirmed"][entry]
    if kind == "leaf_byte":
        proof = claim.account_proof
        index = draw(st.integers(0, len(proof.value) - 1))
        flipped = bytearray(proof.value)
        flipped[index] ^= draw(st.integers(1, 255))
        forged = MembershipProof(
            key=proof.key, value=bytes(flipped), leaf_prefix=proof.leaf_prefix, steps=proof.steps
        )
        return dataclasses.replace(claim, account_proof=forged)
    if kind in ("height_up", "height_down"):
        field = "height" if entry == "remote" else "proof_height"
        step = 1 if kind == "height_up" else -1
        return dataclasses.replace(claim, **{field: getattr(claim, field) + step})
    if kind == "wrong_key":
        if entry == "remote":
            return dataclasses.replace(claim, container=w["mover"])
        return dataclasses.replace(claim, contract=w["other"])
    if kind == "wrong_code":
        code = draw(st.binary(max_size=64).filter(lambda blob: blob != claim.code))
        return dataclasses.replace(claim, code=code)
    if entry == "remote":
        proof = claim.storage_proof
        key, value = proof.key, proof.value
        if kind == "slot_changed":
            value = draw(st.binary(min_size=1, max_size=33).filter(lambda v: v != proof.value))
        else:  # the same value claimed under another slot
            key = draw(st.binary(min_size=32, max_size=32).filter(lambda k: k != proof.key))
        forged = MembershipProof(
            key=key, value=value, leaf_prefix=proof.leaf_prefix, steps=proof.steps
        )
        return dataclasses.replace(claim, storage_proof=forged)
    field = storage_field(entry)
    slots = dict(getattr(claim, field))
    values = st.binary(min_size=1, max_size=33)
    if kind == "slot_added":
        base = w["honest"]["full"].image if entry == "delta" else {}
        key = draw(st.binary(min_size=32, max_size=32).filter(
            lambda k: k not in slots and k not in base
        ))
        slots[key] = draw(values)
    else:
        key = draw(st.sampled_from(sorted(slots)))
        if kind == "slot_removed":
            del slots[key]
        else:
            slots[key] = draw(values.filter(lambda v: v != slots[key]))
    return dataclasses.replace(claim, **{field: slots})


@given(st.data())
@settings(max_examples=1000, deadline=None)
def test_every_tampered_claim_is_refused_with_its_kind(data):
    w = world(data.draw(st.booleans(), label="source_is_burrow"))
    entry = data.draw(st.sampled_from(sorted(TAMPERINGS)), label="entry")
    kind = data.draw(st.sampled_from(TAMPERINGS[entry]), label="tampering")
    claim = tamper(data.draw, w, entry, kind)

    if entry == "remote":
        assert claim.verify(w["target"].light_client) is (kind == "honest")
        return
    if kind == "honest":
        leaf, result = verify(w, entry, claim)
        if entry == "move2":
            assert leaf.location == w["target"].chain_id
            assert dict(result.items()) == claim.storage
        else:
            assert leaf.location == w["source"].chain_id
            expected = claim.image if entry == "full" else w["delta_image"]
            assert dict(result.items()) == expected
        return
    expected = UnknownRootError if kind in VS_FAILURES else ProofError
    with pytest.raises(ProofError) as refused:
        verify(w, entry, claim)
    assert type(refused.value) is expected, (entry, kind, refused.value)
