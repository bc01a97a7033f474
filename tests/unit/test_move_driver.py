"""What only one Move driver can promise.

``IBCBridge.move_contract``, ``Gateway.move`` and ``ChaosWorld.move``
all run :func:`repro.ibc.bridge.drive_move` and differ only in the
``send`` callable they hand it, so the same move must look the same
through any of them: same spans, same gas buckets, same records, and
the same answer to a failing proof or a refused transaction.
"""

import ast
import gc
import inspect
import weakref
from contextlib import contextmanager
from pathlib import Path

import pytest

import repro
from repro.api import (
    Gateway,
    GatewayLimits,
    Node,
    ShedByClass,
    TransferPayload,
    burrow_params,
    sign_transaction,
)
from repro.apps.store import StateStore
from repro.chain.chain import Chain
from repro.chain.tx import DeployPayload
from repro.core.registry import ChainRegistry
from repro.errors import ProofError
from repro.faults.chaos import ChaosReport, ChaosWorld, _scoin_setup
from repro.ibc import bridge as bridge_module
from repro.ibc.bridge import IBCBridge, MovePhases, drive_move
from repro.ibc.headers import connect_chains
from repro.net.sim import Simulator
from repro.telemetry import Telemetry, trace_phases
from repro.telemetry.phases import MOVE_STAGES, PHASES
from tests.helpers import ALICE, BOB

STORE_SLOTS = 10


def make_node():
    """A two-chain node with a Store-10 deployed on chain 1 by ALICE
    (the deploy sits in the mempool until the first block)."""
    node = Node(
        [burrow_params(1, max_block_txs=100), burrow_params(2, max_block_txs=100)],
        seed=3,
        telemetry=Telemetry.enabled(),
        verify_signatures=False,
    )
    for chain in node.chains.values():
        chain.fund({ALICE.address: 10**9, BOB.address: 10**9})
    deploy = sign_transaction(
        ALICE, DeployPayload(code_hash=StateStore.CODE_HASH, args=(STORE_SLOTS,))
    )
    deployed = []
    node.chain(1).wait_for(deploy.tx_id, deployed.append)
    node.chain(1).submit(deploy)
    return node, deployed


def stage_spans(telemetry):
    """Names and attrs of the spans directly under the (one) move root."""
    spans = telemetry.tracer.spans()
    (root,) = [s for s in spans if s.parent_id is None and s.name == "move"]
    return root, [s for s in spans if s.parent_id == root.span_id]


def failing_proof(*_args):
    raise ProofError("no state snapshot (test)")


# ----------------------------------------------------------------------
# (a) one move, two callers, one description
# ----------------------------------------------------------------------


def test_bridge_and_gateway_run_the_same_move():
    outcomes = {}
    for caller in ("bridge", "gateway"):
        node, deployed = make_node()
        if caller == "bridge":
            node.start()
            node.run_until(lambda: deployed)
            store = deployed[0].return_value
            bridge = IBCBridge(node.sim, list(node.chains.values()))
            phases = bridge.move_contract(ALICE, store, 1, 2)
            node.run_until(lambda: phases.completed_at is not None or not phases.success)
        else:
            gateway = Gateway(node)
            gateway.start()
            node.run_until(lambda: deployed)
            store = deployed[0].return_value
            handle = gateway.move(ALICE, store, 1, 2)
            phases = handle.wait()
            assert handle.stage_history == [*MOVE_STAGES, "done"]
        assert phases.success, phases.error
        root, children = stage_spans(node.telemetry)
        assert root.attrs["success"] is True
        records = {
            chain_id: node.chain(chain_id).state.contract(store)
            for chain_id in (1, 2)
        }
        outcomes[caller] = {
            "spans": [s.name for s in children],
            "gas": dict(phases.gas),
            "records": {
                c: (r.location, r.move_nonce, dict(r.storage))
                for c, r in records.items()
            },
        }
        node.stop()
    assert outcomes["bridge"] == outcomes["gateway"]
    assert outcomes["bridge"]["spans"] == list(PHASES)
    # Locked at the source, live at the target with every proven slot.
    source, target = (outcomes["bridge"]["records"][c] for c in (1, 2))
    assert source[0] == target[0] == 2
    assert len(source[2]) >= STORE_SLOTS and source[2].items() <= target[2].items()


# ----------------------------------------------------------------------
# (b) a failing proof is a failed move, never an exception in sim.run
# ----------------------------------------------------------------------


def test_proof_error_fails_the_move_for_bridge_and_gateway():
    for caller in ("bridge", "gateway"):
        node, deployed = make_node()
        gateway = Gateway(node)
        gateway.start()
        node.run_until(lambda: deployed)
        store = deployed[0].return_value
        node.chain(1).prove_contract_at = failing_proof
        if caller == "bridge":
            done = []
            bridge = IBCBridge(node.sim, list(node.chains.values()))
            phases = bridge.move_contract(ALICE, store, 1, 2, on_done=done.append)
            node.run_until(lambda: done)  # raised here before the one driver
            failed = bridge.telemetry.metrics.counter(
                "bridge_moves_total", status="failed"
            )
        else:
            handle = gateway.move(ALICE, store, 1, 2)
            phases = handle.wait()  # a protocol failure: no typed error
            assert handle.stage == "failed" and handle.error is None
            failed = gateway.telemetry.metrics.counter(
                "gateway_moves_total", status="failed"
            )
        assert failed.value == 1
        assert not phases.success
        assert "no state snapshot" in phases.error
        assert phases.move2_included_at is None
        root, children = stage_spans(node.telemetry)
        assert root.attrs["success"] is False
        assert "no state snapshot" in root.attrs["error"]
        assert [s.name for s in children] == ["move1", "confirm.wait", "proof.build"]
        assert children[-1].attrs["success"] is False
        node.stop()


def test_proof_error_under_chaos_is_a_failed_attempt():
    world = ChaosWorld(seed=2, actors=1)
    world.report = ChaosReport(seed=2, duration=400.0, workload="scoin")
    world.deadline = 400.0
    ready = []
    world.node.start()
    _scoin_setup(world, ready.append)
    while not ready:
        world.sim.run(until=world.sim.now + 5.0)
    (actor,) = world.actors
    world.chains[1].prove_contract_at = failing_proof
    # Give up on the first retry decision after this instant.
    world.deadline = world.sim.now + 40.0
    done = []
    world.move(actor, 2, done.append)
    world.sim.run(until=world.sim.now + 200.0)  # no ProofError escapes
    assert done == [False]
    assert not actor.busy and actor.location == 1
    assert world.report.moves_abandoned == 1
    # Each failed proof went through the relayer's retry decision.
    assert world.report.move2_retries >= 1


# ----------------------------------------------------------------------
# (c) the retry argument: re-prove and re-send, one span pair per attempt
# ----------------------------------------------------------------------


def test_move2_retry_reproves_until_the_target_trusts_the_root():
    sim = Simulator(seed=9)
    telemetry = Telemetry.enabled(clock=lambda: sim.now)
    registry = ChainRegistry()
    source, target = (
        Chain(burrow_params(i), registry, verify_signatures=False, telemetry=telemetry)
        for i in (1, 2)
    )
    # Headers reach the peer 22 s late: at proof-ready time the target's
    # light client does not know the proven root yet.
    connect_chains([source, target], sim=sim, delay=22.0)

    def ticker(chain):
        def produce():
            chain.produce_block(sim.now)
            sim.schedule(5.0, produce)

        return produce

    for chain in (source, target):
        chain.fund({ALICE.address: 10**9})
        sim.schedule(5.0, ticker(chain))

    def send(chain_id, tx, on_receipt, _on_reject):
        chain = {1: source, 2: target}[chain_id]
        chain.wait_for(tx.tx_id, on_receipt)
        sim.schedule(0.05, lambda: chain.submit(tx))

    deployed = []
    send(
        1,
        sign_transaction(ALICE, DeployPayload(StateStore.CODE_HASH, args=(1,))),
        deployed.append,
        None,
    )
    sim.run(until=6.0)
    store = deployed[0].return_value

    retries = []

    def retry(attempt):
        retries.append(attempt)
        return 10.0 if attempt < 8 else None

    phases = MovePhases(store, 1, 2, sim.now)
    done = []
    drive_move(
        sim, telemetry.tracer, source, ALICE, phases, send, done.append,
        move2_retry=retry,
    )
    sim.run(until=200.0)
    assert done == [None] and phases.success, phases.error
    assert retries and retries == list(range(len(retries)))
    assert target.location_of(store) == 2

    _root, children = stage_spans(telemetry)
    attempts = len(retries) + 1
    assert [s.name for s in children] == (
        ["move1", "confirm.wait"] + ["proof.build", "move2"] * attempts + ["complete"]
    )
    move2 = [s for s in children if s.name == "move2"]
    assert [s.attrs["attempt"] for s in move2] == list(range(attempts))
    assert [s.attrs["success"] for s in move2] == [False] * len(retries) + [True]
    # trace_phases sums the repeated phases, as under chaos.
    (folded,) = trace_phases(telemetry.tracer.spans())
    assert folded.phase("move2") == pytest.approx(sum(s.duration for s in move2))
    assert folded.phase("move2") > move2[-1].duration


# ----------------------------------------------------------------------
# (d) a gateway-level rejection mid-move is typed and frees the key
# ----------------------------------------------------------------------


def test_mid_move_shed_reaches_the_handle_and_releases_the_key():
    node, deployed = make_node()
    gateway = Gateway(node, GatewayLimits(max_queue_depth=1, max_blocked=0))
    clock = [0.0]

    def block(chain_id):
        clock[0] += 5.0
        node.chain(chain_id).produce_block(clock[0])

    block(1)
    store = deployed[0].return_value
    handle = gateway.move(ALICE, store, 1, 2, client_id="alice", idempotency_key="k")
    assert gateway.move(ALICE, store, 1, 2, client_id="alice", idempotency_key="k") is handle
    gateway.flush()
    block(1)  # Move1 included
    assert handle.stage == "confirm"
    # Chain 2's one slot goes to other move-class work and the lot
    # holds nothing: Move2 will find nowhere to wait.
    blocker = sign_transaction(BOB, TransferPayload(to=ALICE.address, amount=1))
    assert not gateway.submit(blocker, 2, client_id="bob", priority="move").done
    while not handle.done:
        block(1)
    assert handle.stage == "failed"
    assert isinstance(handle.error, ShedByClass)
    assert handle.error.shed_class == "move" and handle.error.chain_id == 2
    with pytest.raises(ShedByClass):
        handle.result()
    assert not handle.phases.success and handle.phases.move2_included_at is None
    assert handle.stage_history == ["move1", "confirm", "proof", "move2", "failed"]
    root, children = stage_spans(node.telemetry)
    assert root.attrs["success"] is False and children[-1].name == "move2"
    metrics = gateway.telemetry.metrics
    assert metrics.counter("gateway_rejected_total", reason="queue_full").value == 1
    assert metrics.counter("gateway_moves_total", status="failed").value == 1
    # The key is free again: a retry is a fresh move, not the failed one.
    retry = gateway.move(ALICE, store, 1, 2, client_id="alice", idempotency_key="k")
    assert retry is not handle


# ----------------------------------------------------------------------
# (e) a finished move leaves no cyclic garbage, through any caller
# ----------------------------------------------------------------------


@contextmanager
def collector_off():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def cyclic_garbage(run_move):
    """The type names of everything the collector finds unreachable
    after ``run_move()``; the caller keeps its world alive, so only
    what the move itself left behind counts."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        run_move()
        gc.collect()
        return [type(obj).__name__ for obj in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def bridge_move(mover):
    """A bridge move by ``mover`` (ALICE completes, BOB is refused at
    Move1).  Its phases record must die by reference counting alone."""
    node, deployed = make_node()
    node.start()
    node.run_until(lambda: deployed)
    bridge = IBCBridge(node.sim, list(node.chains.values()))
    store = deployed[0].return_value

    def run():
        done = []
        with collector_off():
            phases = weakref.ref(
                bridge.move_contract(mover, store, 1, 2, on_done=done.append)
            )
            node.run_until(lambda: done)
            assert done[0].success is (mover is ALICE), done[0].error
            done.clear()
            assert phases() is None

    garbage = cyclic_garbage(run)
    node.stop()
    return garbage


def gateway_move(mover):
    node, deployed = make_node()
    gateway = Gateway(node)
    gateway.start()
    node.run_until(lambda: deployed)
    store = deployed[0].return_value

    def run():
        with collector_off():
            handle = gateway.move(mover, store, 1, 2)
            phases = weakref.ref(handle.wait())
            assert handle.ok is (mover is ALICE), phases().error
            del handle
            assert phases() is None

    garbage = cyclic_garbage(run)
    node.stop()
    return garbage


def chaos_move(proofs_fail):
    """A chaos actor's move: completed, or (``proofs_fail``) Move2
    re-proved on the relayer's retry until the deadline abandons it."""
    world = ChaosWorld(seed=2, actors=1)
    world.report = ChaosReport(seed=2, duration=400.0, workload="scoin")
    world.deadline = 400.0
    ready = []
    world.node.start()
    _scoin_setup(world, ready.append)
    while not ready:
        world.sim.run(until=world.sim.now + 5.0)
    (actor,) = world.actors
    if proofs_fail:
        world.chains[1].prove_contract_at = failing_proof
        world.deadline = world.sim.now + 40.0

    def run():
        done = []
        world.move(actor, 2, done.append)
        while not done:
            world.sim.run(until=world.sim.now + 5.0)
        assert done == [not proofs_fail]

    garbage = cyclic_garbage(run)
    assert world.report.move2_retries >= (1 if proofs_fail else 0)
    world.node.stop()
    return garbage


@pytest.mark.parametrize(
    "caller,argument",
    [
        pytest.param(bridge_move, ALICE, id="bridge-completed"),
        pytest.param(bridge_move, BOB, id="bridge-refused"),
        pytest.param(gateway_move, ALICE, id="gateway-completed"),
        pytest.param(gateway_move, BOB, id="gateway-refused"),
        pytest.param(chaos_move, False, id="chaos-completed"),
        pytest.param(chaos_move, True, id="chaos-move2-retry"),
    ],
)
def test_moves_leave_no_cyclic_garbage(caller, argument):
    assert caller(argument) == []


# ----------------------------------------------------------------------
# (f) the driver stays acyclic and single-path
# ----------------------------------------------------------------------

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_the_driver_is_one_slotted_object_built_only_by_drive_move():
    tree = ast.parse(inspect.getsource(bridge_module))
    # Every def is module-level or a method: no closure can capture a
    # stage and be captured back.
    functions = [
        fn
        for top in tree.body
        for fn in (top.body if isinstance(top, ast.ClassDef) else [top])
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    nested = [
        inner.name
        for fn in functions
        for inner in ast.walk(fn)
        if inner is not fn and isinstance(inner, DEFS)
    ]
    assert nested == []
    builders = [
        fn.name
        for fn in functions
        for call in ast.walk(fn)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "_MoveDriver"
    ]
    assert builders == ["drive_move"]
    # Slotted, and holding only the move's inputs and its two spans.
    for cls in (bridge_module._MoveDriver, bridge_module._HeightListener):
        assert "__slots__" in vars(cls) and cls.__bases__ == (object,)
    assert set(bridge_module._MoveDriver.__slots__) == {
        "sim", "tracer", "source", "mover", "phases", "send", "on_done",
        "completions", "on_stage", "move2_retry", "root", "live",
    }
    # No other module reaches past drive_move into the driver.
    home = Path(bridge_module.__file__)
    private = ("_MoveDriver", "_HeightListener", "_when_height")
    leaks = [
        path.name
        for path in Path(repro.__file__).parent.rglob("*.py")
        if path != home and any(name in path.read_text() for name in private)
    ]
    assert leaks == []
