"""Unit tests for the IBC bridge choreography and phase accounting."""

import pytest

from repro.chain.chain import Chain
from repro.chain.params import burrow_params
from repro.chain.tx import CallPayload, DeployPayload, sign_transaction
from repro.core.registry import ChainRegistry
from repro.crypto.keys import KeyPair
from repro.ibc.bridge import IBCBridge, MovePhases
from repro.ibc.headers import connect_chains
from repro.net.sim import Simulator
from tests.helpers import ALICE, BOB, StoreContract


@pytest.fixture
def bridge_world():
    """Two Burrow-flavoured chains with block production driven by
    simple simulator ticks (no consensus engine needed here)."""
    sim = Simulator(seed=5)
    registry = ChainRegistry()
    a = Chain(burrow_params(1), registry, verify_signatures=False)
    b = Chain(burrow_params(2), registry, verify_signatures=False)
    connect_chains([a, b])

    def tick(chain):
        def produce():
            chain.produce_block(sim.now)
            sim.schedule(5.0, produce)
        return produce

    sim.schedule(5.0, tick(a))
    sim.schedule(5.0, tick(b))
    bridge = IBCBridge(sim, [a, b])
    return sim, a, b, bridge


def deploy(sim, chain, bridge):
    tx = sign_transaction(ALICE, DeployPayload(code_hash=StoreContract.CODE_HASH))
    done = []
    chain.wait_for(tx.tx_id, done.append)
    chain.submit(tx)
    while not done:
        sim.run(until=sim.now + 5.0)
    assert done[0].success
    return done[0].return_value


def test_move_phases_fill_in_order(bridge_world):
    sim, a, b, bridge = bridge_world
    addr = deploy(sim, a, bridge)
    done = []
    phases = bridge.move_contract(ALICE, addr, 1, 2, on_done=done.append)
    assert phases.move1_included_at is None  # nothing happened yet
    sim.run(until=sim.now + 200.0)
    assert done and done[0].success
    p = done[0]
    assert p.started_at <= p.move1_included_at <= p.proof_ready_at
    assert p.proof_ready_at <= p.move2_included_at == p.completed_at
    assert p.total_time > 0
    assert p.gas.get("move1", 0) > 0
    assert p.gas.get("move2", 0) > 0
    assert b.location_of(addr) == b.chain_id


def test_completions_run_and_are_metered(bridge_world):
    sim, a, b, bridge = bridge_world
    addr = deploy(sim, a, bridge)

    def completion(mover: KeyPair):
        return sign_transaction(mover, CallPayload(addr, "put", (1, 42)))

    done = []
    bridge.move_contract(ALICE, addr, 1, 2, completions=(completion,), on_done=done.append)
    sim.run(until=sim.now + 300.0)
    assert done and done[0].success
    assert done[0].gas.get("complete", 0) >= 21_000
    assert done[0].completed_at > done[0].move2_included_at
    assert b.view(addr, "get_value", 1) == 42


def test_failed_move1_reports_failure(bridge_world):
    sim, a, _b, bridge = bridge_world
    addr = deploy(sim, a, bridge)
    done = []
    # BOB is not the owner: the moveTo hook reverts.
    bridge.move_contract(BOB, addr, 1, 2, on_done=done.append)
    sim.run(until=sim.now + 100.0)
    assert done and not done[0].success
    assert "owner" in done[0].error
    assert done[0].move2_included_at is None


def test_failed_completion_reports_failure(bridge_world):
    sim, a, b, bridge = bridge_world
    addr = deploy(sim, a, bridge)

    def bad_completion(mover: KeyPair):
        return sign_transaction(mover, CallPayload(addr, "no_such_method"))

    done = []
    bridge.move_contract(ALICE, addr, 1, 2, completions=(bad_completion,), on_done=done.append)
    sim.run(until=sim.now + 300.0)
    assert done and not done[0].success
    # The move itself landed; only the completion failed.
    assert done[0].move2_included_at is not None
    assert b.location_of(addr) == b.chain_id


def test_move_phases_gas_bucketing():
    phases = MovePhases(
        contract=None, source_chain=1, target_chain=2, started_at=0.0
    )
    phases.add_gas({"move1": 10, "execution": 5}, fallback="move1")
    phases.add_gas({"create": 7, "code_deposit": 3, "move2": 4}, fallback="move2")
    phases.add_gas({"complete": 2, "execution": 1}, fallback="complete")
    assert phases.gas == {"move1": 15, "create": 10, "move2": 4, "complete": 3}


def test_a_stage_never_reached_lasts_zero():
    def record(**times):
        return MovePhases(contract=None, source_chain=1, target_chain=2, **times)

    refused = record(started_at=10.0)  # refused before inclusion
    assert refused.move1_time == 0.0
    stuck = record(started_at=10.0, move1_included_at=12.0)  # failed in the wait
    assert (stuck.move1_time, stuck.wait_proof_time, stuck.move2_time) == (2.0, 0.0, 0.0)
    unproven = record(started_at=10.0, move1_included_at=12.0, proof_ready_at=20.0)
    assert (unproven.wait_proof_time, unproven.move2_time) == (8.0, 0.0)
    assert unproven.complete_time == 0.0
    done = record(
        started_at=10.0,
        move1_included_at=12.0,
        proof_ready_at=20.0,
        move2_included_at=23.0,
        completed_at=27.0,
    )
    assert (done.move1_time, done.wait_proof_time, done.move2_time) == (2.0, 8.0, 3.0)
    assert (done.complete_time, done.total_time) == (4.0, 17.0)


def test_a_refused_move_reports_no_negative_phase(bridge_world):
    sim, a, _b, bridge = bridge_world
    addr = deploy(sim, a, bridge)
    done = []
    bridge.move_contract(BOB, addr, 1, 2, on_done=done.append)  # not the owner
    sim.run(until=sim.now + 100.0)
    (phases,) = done
    assert not phases.success and phases.move1_included_at is None
    assert phases.started_at > 0.0
    assert phases.move1_time == phases.wait_proof_time == phases.move2_time == 0.0
