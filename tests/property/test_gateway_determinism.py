"""Property: the gateway is execution-transparent and bounded.

Two contracts from ISSUE/ROADMAP:

1. **Transparency** — a fixed-seed workload routed through the gateway
   (bounded queues, micro-batch flushes, the timer block driver) must
   produce *byte-identical* state roots, receipts and chain statistics
   to the same transactions submitted straight into the mempool with
   manual block production.  Admission order in, canonical order out —
   serving adds no nondeterminism.
2. **Boundedness** — 64 concurrent clients pushing past capacity never
   grow the admission queue past its bound or the mempool past its
   headroom; the overflow is shed with machine-readable codes; and the
   whole saturation run replays identically from its seed.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import (
    Gateway,
    GatewayLimits,
    Node,
    TransferPayload,
    burrow_params,
    sign_transaction,
)
from repro.chain.stats import collect_chain_stats
from repro.crypto.keys import KeyPair
from repro.workload.fleet import FleetWorkload

USERS = [KeyPair.from_name(f"gwdet-{i}") for i in range(6)]
PARAMS = dict(max_block_txs=10, block_interval=5.0)


def make_txs(plan):
    """The drawn workload as signed transactions (deterministic)."""
    txs = []
    for nonce, (sender, to, amount) in enumerate(plan, start=1):
        txs.append(
            sign_transaction(
                USERS[sender],
                TransferPayload(to=USERS[to].address, amount=amount),
                nonce=nonce,
            )
        )
    return txs


def fund(node):
    node.chain(1).fund({kp.address: 10**9 for kp in USERS})


def run_direct(plan):
    """Reference run: straight into the mempool, manual blocks."""
    node = Node(burrow_params(1, **PARAMS), seed=3, verify_signatures=False)
    fund(node)
    chain = node.chain(1)
    for tx in make_txs(plan):
        chain.submit(tx)
    t = 0.0
    while len(chain.mempool):
        t += 5.0
        chain.produce_block(t, proposer="node-1")
    return node


def run_gateway(plan):
    """Same transactions through admission queues + timer driver."""
    node = Node(burrow_params(1, **PARAMS), seed=3, verify_signatures=False)
    fund(node)
    gateway = Gateway(
        node,
        GatewayLimits(max_queue_depth=4096, batch_size=64, mempool_headroom=4),
    )
    gateway.start()
    handles = [gateway.submit(tx, 1) for tx in make_txs(plan)]
    node.run_until(lambda: all(h.done for h in handles), max_time=10_000.0)
    assert all(h.ok for h in handles)
    gateway.stop()
    return node


def fingerprint(node):
    chain = node.chain(1)
    receipts = {
        tx_id: (r.success, r.gas_used, r.block_height, r.fee_paid, repr(r.return_value))
        for tx_id, r in chain.receipts.items()
    }
    stats = collect_chain_stats(chain).to_dict()
    return chain.head.header.state_root.hex(), receipts, stats


@given(
    plan=st.lists(
        st.tuples(
            st.integers(0, len(USERS) - 1),
            st.integers(0, len(USERS) - 1),
            st.integers(1, 10**6),
        ),
        min_size=1,
        max_size=60,
    )
)
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_gateway_path_is_byte_identical_to_direct(plan):
    direct_root, direct_receipts, direct_stats = fingerprint(run_direct(plan))
    gw_root, gw_receipts, gw_stats = fingerprint(run_gateway(plan))
    assert gw_root == direct_root
    assert gw_receipts == direct_receipts
    assert gw_stats == direct_stats


def saturation_report(seed=42):
    # One replica, uniform rates, every request bulk: a flat population.
    workload = FleetWorkload(
        clients=64,
        replicas=1,
        total_rate=64 * 3.0,  # ~192/s offered into a 20/s chain
        zipf_s=0.0,
        class_mix=(0.0, 0.0, 1.0),
        seed=seed,
        limits=GatewayLimits(max_queue_depth=128),
        block_interval=5.0,
        max_block_txs=100,
    )
    report = workload.run(duration=60.0, drain=60.0)
    return workload, report


def test_sixty_four_clients_bounded_and_typed():
    workload, report = saturation_report()
    assert report.clients == 64
    assert report.submitted > 5_000
    # The queue never grew past its bound and the mempool never past
    # its headroom — overload lives in typed sheds, not in memory.
    assert report.peak_queue_depth <= 128
    assert len(workload.node.chain(1).mempool) <= 4 * 100
    assert report.shed_total > 0
    assert set(report.shed_codes) <= {"queue_full", "rate_limited"}
    assert report.confirmed > 0
    assert report.unresolved == 0  # everything drained or was shed


def test_saturation_replays_byte_identically_from_seed():
    _, first = saturation_report(seed=7)
    _, second = saturation_report(seed=7)
    assert first.to_dict() == second.to_dict()
    _, other = saturation_report(seed=8)
    assert other.to_dict() != first.to_dict()
