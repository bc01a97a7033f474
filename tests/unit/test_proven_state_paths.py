"""One prover and one installer for proven contract state.

The source builds every claim about a contract — a Move2 bundle, a
storage-entry proof, a replica update — from one lookup, so each one
refuses a contract it cannot prove with a typed
:class:`~repro.errors.ProofError`.  The target installs the storage
tree its verifier built, so a same-flavour mirror update builds one
tree and a cross-flavour one exactly one more.  The chaos replica
oracle checks the storage the target serves, not a copy beside it.
"""

import sys
from types import SimpleNamespace

import pytest

from repro.chain.chain import Chain
from repro.chain.params import burrow_params
from repro.core.registry import ChainRegistry
from repro.errors import InvariantViolation, ProofError
from repro.faults.chaos import _check_replicas
from repro.ibc.headers import connect_chains
from repro.replicate.mirror import LIVE
from repro.replicate.relay import ReplicationRelay
from repro.statedb import state as state_module
from tests.helpers import (
    ALICE,
    CallPayload,
    ManualClock,
    deploy_store,
    make_chain_pair,
    produce,
    run_tx,
)


def _mirrored(source, target):
    """A StoreContract on ``source`` with one write, mirrored onto
    ``target`` and LIVE there; the target has produced no block."""
    clock = ManualClock()
    address = deploy_store(source, clock, ALICE)
    receipt = run_tx(source, clock, ALICE, CallPayload(address, "put", (1, 42)))
    assert receipt.success, receipt.error
    relay = ReplicationRelay(source, target)
    relay.start()
    mirror = relay.add_contract(address)
    produce(source, clock, 3)
    assert mirror.status == LIVE
    return clock, address, relay, mirror


def _burrow_pair():
    registry = ChainRegistry()
    source = Chain(burrow_params(1), registry)
    target = Chain(burrow_params(2), registry)
    connect_chains([source, target])
    return source, target


def test_every_reader_refuses_a_contract_not_yet_committed_with_proof_error():
    source, target = _burrow_pair()
    _clock, address, _relay, _mirror = _mirrored(source, target)
    # The mirror is in the target's state, but no target block has
    # committed it: no reader can prove it at the head.
    key = next(iter(target.state.contract(address).storage))
    with pytest.raises(ProofError, match=f"not committed at height {target.height}"):
        target.prove_contract_at(address, target.height)
    with pytest.raises(ProofError, match=f"not committed at height {target.height}"):
        target.prove_storage_entry(address, key, target.height)
    target.enable_replication(address)
    with pytest.raises(ProofError, match=f"not committed at height {target.height}"):
        target.build_replica_update(address, upto=target.height)


def _count_builds_per_update(monkeypatch, relay):
    """Patch ``build_storage_trie`` wherever ``repro`` imported it and
    wrap the relay's step; returns the list of builds per applied
    update, filled as the relay runs."""
    original = state_module.build_storage_trie
    builds = [0]
    in_relay = [False]

    def counting(*args, **kwargs):
        if in_relay[0]:
            builds[0] += 1
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "build_storage_trie", None) is original:
            monkeypatch.setattr(module, "build_storage_trie", counting)
    per_update = []
    advance = relay._advance

    def counted_advance(*args):
        builds[0], in_relay[0] = 0, True
        try:
            applied = advance(*args)
        finally:
            in_relay[0] = False
        if applied:
            per_update.append(builds[0])
        return applied

    monkeypatch.setattr(relay, "_advance", counted_advance)
    return per_update


@pytest.mark.parametrize("cross_flavour", [False, True], ids=["same_flavour", "cross_flavour"])
def test_a_mirror_update_builds_one_storage_tree_and_one_more_across_flavours(
    monkeypatch, cross_flavour
):
    source, target = make_chain_pair() if cross_flavour else _burrow_pair()
    assert (source.params.tree_factory is not target.params.tree_factory) is cross_flavour
    clock = ManualClock()
    address = deploy_store(source, clock, ALICE)
    run_tx(source, clock, ALICE, CallPayload(address, "put", (1, 42)))
    relay = ReplicationRelay(source, target)
    relay.start()
    per_update = _count_builds_per_update(monkeypatch, relay)
    mirror = relay.add_contract(address)
    produce(source, clock, 3)
    for round_no in range(5):
        run_tx(source, clock, ALICE, CallPayload(address, "put", (round_no, round_no)))
    produce(source, clock, 3)
    assert mirror.status == LIVE and mirror.full_syncs == 1
    assert len(per_update) == relay.updates >= 5
    assert per_update == [2 if cross_flavour else 1] * relay.updates
    assert target.view(address, "get_value", 4) == 4


def test_the_replica_oracle_checks_the_storage_the_target_serves():
    source, target = _burrow_pair()
    _clock, address, relay, mirror = _mirrored(source, target)
    world = SimpleNamespace(
        chains={source.chain_id: source, target.chain_id: target},
        report=SimpleNamespace(replica_checks=0),
    )
    manager = SimpleNamespace(_relays={(source.chain_id, target.chain_id): relay})
    _check_replicas(world, manager)
    assert world.report.replica_checks == 1

    # Tamper one served slot; the relay's own state is left alone.
    served = target.state.contract(address).storage
    key = next(key for key, value in served.items() if int.from_bytes(value, "big") == 42)
    served[key] = served[key][:-1] + bytes([served[key][-1] ^ 1])
    assert target.view(address, "get_value", 1) != 42
    assert mirror.status == LIVE
    with pytest.raises(InvariantViolation, match="torn image"):
        _check_replicas(world, manager)
