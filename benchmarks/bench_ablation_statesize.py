"""Ablation: move cost vs. moved state size (Fig. 9's underlying law).

Sweeps the Store-N contract from N = 1 to N = 200 slots and fits the
per-slot cost of Move2: gas should grow by ~SSTORE_SET (20 000) per
32-byte slot plus a near-constant proof/creation overhead, and the
proof bundle's byte size should grow by ~64+ bytes per slot.  This is
the quantitative basis for the paper's advice (Section I) to split
large-state contracts into one-contract-per-user objects before moving
them.

A second sweep measures commit throughput on a resident large-state
contract: with one live storage trie per contract and per-contract
dirty-slot sets, committing a block that touches ``d`` of ``S`` slots
folds only the ``d`` dirty slots (O(d log S)) instead of rebuilding
the whole trie (O(S log S)).  The table reports blocks/s for 1–200
dirty slots of a 10 000-slot contract against the canonical-rebuild
baseline every Move2 verifier pays.
"""

from __future__ import annotations

import time

from bench_common import emit, format_table, once

from repro.apps.store import StateStore
from repro.chain.tx import DeployPayload, Move2Payload
from repro.crypto.keys import Address
from repro.merkle.iavl import IAVLTree
from repro.statedb.state import WorldState, build_storage_trie, compute_storage_root
from tests.helpers import ALICE, ManualClock, full_move, make_chain_pair, produce, run_tx

SLOT_COUNTS = (1, 5, 10, 25, 50, 100, 200)

COMMIT_TOTAL_SLOTS = 10_000
DIRTY_COUNTS = (1, 5, 10, 25, 50, 100, 200)


def _measure_move_cost():
    rows = {}
    for slots in SLOT_COUNTS:
        burrow, ethereum = make_chain_pair()
        clock = ManualClock()
        store = run_tx(
            burrow, clock, ALICE,
            DeployPayload(code_hash=StateStore.CODE_HASH, args=(slots,)),
        ).return_value
        # Build the proof by hand to capture its size.
        from repro.chain.tx import Move1Payload

        receipt1 = run_tx(
            burrow, clock, ALICE,
            Move1Payload(contract=store, target_chain=ethereum.chain_id),
        )
        while burrow.height < burrow.proof_ready_height(receipt1.block_height):
            produce(burrow, clock)
        bundle = burrow.prove_contract_at(store, receipt1.block_height)
        receipt2 = run_tx(ethereum, clock, ALICE, Move2Payload(bundle=bundle))
        assert receipt2.success, receipt2.error
        rows[slots] = (receipt2.gas_used, bundle.size_bytes())
    return rows


def _slot_key(i: int) -> bytes:
    return b"slot%05d" % i


def _measure_commit_throughput():
    contract = Address(b"\x42" * 20)
    state = WorldState(chain_id=1, tree_factory=IAVLTree)
    state.create_contract(contract, b"\x01" * 32, b"bench-code")
    slots = {_slot_key(i): b"v%05d" % i for i in range(COMMIT_TOTAL_SLOTS)}
    state.load_storage(contract, build_storage_trie(state.tree_factory, slots))
    state.commit()

    # Baseline: the canonical sorted rebuild of the full 10k-slot trie
    # (what commit() cost per dirty contract before incremental folds,
    # and what every Move2 verifier still pays once per move).
    storage = state.require_contract(contract).storage
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        compute_storage_root(state.tree_factory, storage)
        samples.append(time.perf_counter() - start)
    rebuild_seconds = min(samples)

    rows = {}
    for dirty in DIRTY_COUNTS:
        blocks = max(5, 400 // dirty)
        start = time.perf_counter()
        for block in range(blocks):
            for i in range(dirty):
                state.storage_set(
                    contract, _slot_key(i), b"d%05d.%05d" % (dirty, block)
                )
            state.commit()
        elapsed = time.perf_counter() - start
        incremental = elapsed / blocks
        rows[dirty] = (1.0 / incremental, rebuild_seconds / incremental)
    return rows


def _measure_all():
    return _measure_move_cost(), _measure_commit_throughput()


def test_ablation_state_size(benchmark):
    move_rows, commit_rows = once(benchmark, _measure_all)

    move_table = format_table(
        ["slots", "Move2 gas", "gas/slot (marginal)", "proof bytes"],
        [
            [
                slots,
                move_rows[slots][0],
                round(
                    (move_rows[slots][0] - move_rows[SLOT_COUNTS[0]][0])
                    / max(slots - SLOT_COUNTS[0], 1)
                ),
                move_rows[slots][1],
            ]
            for slots in SLOT_COUNTS
        ],
    )
    commit_table = format_table(
        ["dirty slots", "commit blocks/s", "speedup vs rebuild"],
        [
            [
                dirty,
                round(commit_rows[dirty][0], 1),
                f"{commit_rows[dirty][1]:.1f}x",
            ]
            for dirty in DIRTY_COUNTS
        ],
    )
    emit(
        "ablation_statesize",
        move_table
        + f"\n\ncommit throughput, {COMMIT_TOTAL_SLOTS}-slot contract"
        + " (incremental vs canonical rebuild):\n"
        + commit_table,
    )

    gas = {slots: g for slots, (g, _b) in move_rows.items()}
    size = {slots: b for slots, (_g, b) in move_rows.items()}
    # Monotone growth in both dimensions.
    assert all(gas[a] < gas[b] for a, b in zip(SLOT_COUNTS, SLOT_COUNTS[1:]))
    assert all(size[a] < size[b] for a, b in zip(SLOT_COUNTS, SLOT_COUNTS[1:]))
    # The marginal slot costs ~SSTORE_SET plus small proof overhead.
    marginal = (gas[200] - gas[100]) / 100
    assert 20_000 <= marginal < 23_000
    # Proof bytes grow by at least key+value (64 B) per slot.
    assert (size[200] - size[100]) / 100 >= 64
    # Incremental commits must beat the full rebuild by >=5x while at
    # most 1% of the contract's slots are dirty (the acceptance bar).
    for dirty in DIRTY_COUNTS:
        if dirty <= COMMIT_TOTAL_SLOTS // 100:
            assert commit_rows[dirty][1] >= 5.0, (
                f"{dirty} dirty slots: only {commit_rows[dirty][1]:.1f}x"
            )
