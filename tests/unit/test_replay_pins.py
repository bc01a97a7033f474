"""Cross-commit replay pins: the simulator, admission, the commit path.

``test_determinism.py`` proves a seed replays identically *within* one
commit; these pins guard the same runs *across* commits.  Every literal
below was recorded at commit ``c588248`` — before the simulator's
events became plain lists, ``schedule`` started carrying arguments and
gateway admission was flattened — so a change that reorders one event,
draws one random number earlier or moves one admit/shed/flush decision
fails here rather than in a benchmark nobody re-ran.

Section (d) pins the commit path the same way: its root was recorded
at ``eb01489``, before IAVL ``set`` started writing un-hashed nodes in
place.  Its retained heights and captured-proof digest are a deliberate
re-pin made when the chain stopped keeping per-block tree snapshots;
the digest equals what those snapshots proved at ``dacaed8``.

Section (e)'s lone-gateway literals were recorded at ``99a5142``, where
a lone gateway and a fleet were two classes, through a one-replica
``GatewayFleet``.  Its ``repro gateway --json --seed 0`` pin is the
deliberate re-pin made when that command moved onto the one open-loop
driver, ``FleetWorkload``: every literal was derived at ``a286fff``.

Section (f)'s two CLI digests were recorded at ``725b0dc``, before the
signed encoding gained length prefixes: no state root, gas figure or
timestamp hashes a transaction id, so re-deriving every ``tx_id`` moves
neither.  Its transaction-id literals are the deliberate re-pin that
change made.  Its ``scoin`` and ``trace --series`` digests were recorded
at ``e8993b0``, before the latency table and the throughput series left
a second metrics package for the modules that read them.

Section (g)'s literals were recorded at ``680fcbc``, while the chaos
world, the shard cluster and the IBC experiment each still assembled
their own simulator, network, engines and relays: a replicated chaos
run with the PoW bystander and the health plane, and the two
Ethereum-sourced IBC moves, which now reach Burrow through a
fork-tracking header store.

Section (h)'s literals were recorded at ``f7e9393``, before a Move2
started signing its code by hash and the target stopped rebuilding the
storage tree ``VP`` had already built.  With section (f)'s kitties
report and section (g)'s two, they pin all ten ``ibc --json`` reports,
so a change to Move2 gas or timing fails here.

Re-pin only for a change that is *meant* to alter simulated behaviour,
and say so in CHANGES.md.
"""

import hashlib
import json
from collections import Counter

import pytest

from repro.chain.chain import Chain
from repro.chain.params import burrow_params
from repro.chain.tx import (
    BytecodeCallPayload,
    CallPayload,
    DeployBytecodePayload,
    TransferPayload,
    sign_transaction,
)
from repro.cli import main
from repro.core.registry import ChainRegistry
from repro.crypto.keys import KeyPair
from repro.errors import ShedByClass
from repro.faults.chaos import run_chaos
from repro.gateway import Gateway, GatewayLimits, SimNetTransport
from repro.net.sim import Simulator
from repro.net.transport import Network
from repro.node import Node
from repro.sharding.cluster import ShardedCluster
from repro.vm.assembler import assemble
from repro.workload.fleet import FleetWorkload

# ----------------------------------------------------------------------
# (a) Tendermint over the emulated WAN: one shard, 122 simulated seconds
# ----------------------------------------------------------------------

COMMIT_TIMES = [
    5.183025531323223, 10.349056606052272, 15.526954813175706,
    20.73311108958044, 25.910212664223447, 31.083148730445174,
    36.271823962009606, 41.453312223596406, 46.62779315895342,
    51.801714302134975, 56.98018812748049, 62.152043527640416,
    67.33034257224787, 72.52767842141792, 77.70940417012152,
    82.88652592003841, 88.07331029855479, 93.2476974614185,
    98.42522143794639, 103.60470831852928, 108.78446004780436,
    113.96016017123361, 119.14611596079997,
]


def test_consensus_timeline_is_pinned():
    cluster = ShardedCluster(num_shards=1, seed=3)
    cluster.start()
    cluster.run(until=122.0)
    assert cluster.engines[0].commit_times == COMMIT_TIMES
    assert cluster.network.messages_sent == 4554
    assert cluster.shards[0].head.header.state_root.hex() == (
        "03bc836237a9713a05277483f1758f7a129be6ea7ded4f6cd5662ba7730ad98f"
    )


# ----------------------------------------------------------------------
# (b) Admission identity: a small fleet, unsaturated and shedding
# ----------------------------------------------------------------------


def test_fleet_admission_is_pinned():
    report = FleetWorkload(clients=50, replicas=2, total_rate=40.0, seed=5).run(
        duration=10.0, drain=10.0
    )
    assert (report.submitted, report.confirmed, report.shed_total) == (398, 398, 0)
    assert report.log_digest == (
        "723b98a902b3d673c26f06b6458101abb684aa269277655b8c2ce6c3f26e9c99"
    )
    assert report.final_root == (
        "255c5f9a7284a223f59ae242118dd24075ff9d003ad8b3aa5dba1582d9c72608"
    )


def test_fleet_shedding_and_eviction_are_pinned():
    # Offered at ~4x what two replicas flush through an 8-deep queue:
    # most bulk is refused and 60 queued bulk entries are evicted by
    # move/view arrivals, so the shed and victim paths are in the digest.
    workload = FleetWorkload(
        clients=50,
        replicas=2,
        total_rate=60.0,
        seed=9,
        limits=GatewayLimits(
            max_queue_depth=8, batch_size=4, flush_interval=0.5, mempool_headroom=4
        ),
    )
    report = workload.run(duration=10.0, drain=10.0)
    kinds = Counter(record[1] for record in workload.fleet.admission_log)
    assert kinds == {"admit": 232, "shed": 380, "flush": 44}
    assert (report.submitted, report.confirmed, report.unresolved) == (552, 172, 0)
    assert report.shed_by_class == {"bulk": 380}
    assert report.log_digest == (
        "c8d254768893bfd0c980e876cd052fef71c2d4104f66c1233d91a444a7813ecd"
    )
    assert report.final_root == (
        "0903fada213b04fda0815154e9852bd2f6003e84b8f24b0bbb2c23e1af17ddb1"
    )


# ----------------------------------------------------------------------
# (c) The fault hook: what it sees, and what its answers do
# ----------------------------------------------------------------------


def test_fault_hook_sees_the_pinned_message_sequence():
    cluster = ShardedCluster(num_shards=1, seed=7, validators_per_shard=4)
    seen = []

    def record(src, dst, payload, delay):
        seen.append((src, dst, type(payload).__name__, delay))
        return None  # leave the sampled latency alone

    cluster.network.fault_hook = record
    cluster.start()
    while cluster.shards[0].height < 3:
        cluster.sim.run(max_events=1)
    assert len(seen) == 90
    assert hashlib.sha256(repr(seen).encode()).hexdigest() == (
        "56fe55946e82a2f767c6f044f28aa6d44e1a34fff683d3b43d174b5f3a2e290c"
    )
    assert cluster.sim.now == 15.540721707254352


def test_fault_hook_answers_behave_as_send_documents():
    sim = Simulator(seed=1)
    net = Network(sim)
    arrivals = []
    net.attach("a", "us-east-1", lambda src, msg: None)
    net.attach("b", "eu-west-1", lambda src, msg: arrivals.append((sim.now, src, msg)))
    net.attach("c", "eu-west-1", lambda src, msg: arrivals.append((sim.now, src, msg)))
    answers = {"drop": [], "twice": [1.0, 2.0], "early": [-5.0], "late": [9.0]}
    sampled = {}

    def hook(src, dst, payload, delay):
        sampled[payload] = delay
        return answers.get(payload)

    net.fault_hook = hook
    for payload in ("drop", "twice", "early", "late", "plain"):
        net.send("a", "b", payload)
    net.partition(["a"], ["c"])
    net.send("a", "c", "partitioned")
    sim.run()
    # The hook runs after partition filtering and latency sampling.
    assert "partitioned" not in sampled
    assert all(0.0 < delay < 1.0 for delay in sampled.values())
    # [] drops; two entries duplicate; a negative delay clamps to now
    # (which reorders it ahead of its peers); one entry re-delays;
    # None keeps the sampled latency.
    assert arrivals == [
        (0.0, "a", "early"),
        (sampled["plain"], "a", "plain"),
        (1.0, "a", "twice"),
        (2.0, "a", "twice"),
        (9.0, "a", "late"),
    ]
    assert net.messages_sent == 4
    assert net.messages_dropped == 2  # the hook's drop and the partition's
    assert net.messages_duplicated == 1


# ----------------------------------------------------------------------
# (d) The commit path: one chain, fourteen mixed blocks, captured proofs
# ----------------------------------------------------------------------

# storage[calldata word 0] = calldata word 1; a zero value frees the slot
SLOT_STORE = assemble("""
    PUSH1 32
    CALLDATALOAD
    PUSH1 0
    CALLDATALOAD
    SSTORE
    STOP
""")


def test_commit_path_and_retained_snapshots_are_pinned():
    alice, bob = KeyPair.from_name("alice"), KeyPair.from_name("bob")
    chain = Chain(burrow_params(1, snapshot_retention=4), ChainRegistry())
    chain.fund({alice.address: 10**9, bob.address: 10**9})

    def word(n):
        return n.to_bytes(32, "big")

    store, slots = None, []
    for height in range(1, 15):
        newcomer = KeyPair.from_name(f"pin-{height}").address
        txs = [
            sign_transaction(alice, TransferPayload(bob.address, height)),
            sign_transaction(bob, TransferPayload(newcomer, 7 * height)),  # creates it
        ]
        if height == 3:
            txs.append(sign_transaction(alice, DeployBytecodePayload(code=SLOT_STORE)))
        if store is not None:
            call = BytecodeCallPayload
            txs.append(sign_transaction(alice, call(store, word(height) + word(11 * height))))
            txs.append(sign_transaction(bob, call(store, word(4) + word(height))))
            if height % 3 == 0:
                txs.append(sign_transaction(bob, call(store, word(height - 2) + word(0))))
        for tx in txs:
            assert chain.submit(tx)
        chain.produce_block(5.0 * height)
        assert all(chain.receipts[tx.tx_id].success for tx in txs)
        if height == 3:
            store = chain.receipts[txs[-1].tx_id].return_value
            chain.enable_replication(store)  # proven at every block from here on
        if store is not None:
            slots.append(len(chain.state.contract(store).storage))
    # inserts, overwrites and deletes all reached the storage trie
    assert slots == [0, 1, 2, 2, 4, 5, 5, 6, 7, 7, 8, 9]
    assert chain.state.committed_root.hex() == (
        "648e44f7a1c2884b4951f887b3643a672a2a1eb7dc1e9b9249f9d9e69b5c2b38"
    )
    # The live tree moved on in place; what each retained height keeps is
    # its root and the replicated store's proof, captured at its commit.
    assert sorted(chain._post_roots) == [0, 10, 11, 12, 13, 14]
    assert sorted(chain._proofs) == [10, 11, 12, 13, 14]
    blob = b""
    for height in sorted(chain._proofs):
        (address, proof), = chain._proofs[height].items()
        assert address == store
        assert proof.computed_root() == chain._post_roots[height]
        blob += proof.leaf_prefix + proof.key + proof.value
        blob += b"".join(prefix + suffix for prefix, suffix in proof.steps)
    # Re-pinned when per-block tree snapshots were deleted: these are the
    # bytes the parent's snapshots proved at the same heights.
    assert (len(blob), hashlib.sha256(blob).hexdigest()) == (
        1330, "2aa3a3e588c25c6d66de6f0d8ad52c8ec4a7f343ab1a31f7c35cfec5de6d9a1c"
    )
    assert len(set(chain._post_roots.values())) == 6


# ----------------------------------------------------------------------
# (e) A lone gateway is a fleet of one
# ----------------------------------------------------------------------


def test_lone_gateway_replays_the_one_replica_fleet():
    node = Node(
        [
            burrow_params(1, max_block_txs=6, block_interval=2.0),
            burrow_params(2, max_block_txs=50, block_interval=2.0),
        ],
        seed=13,
        verify_signatures=False,
    )
    clients = [KeyPair.from_name(f"lone-pin-{i}") for i in range(6)]
    movers = [KeyPair.from_name(f"lone-pin-mover-{i}") for i in range(5)]
    node.chain(1).fund({kp.address: 10**9 for kp in clients + movers})
    gateway = Gateway(
        node,
        GatewayLimits(
            max_queue_depth=6, max_blocked=2, batch_size=4,
            flush_interval=0.5, mempool_headroom=1,
        ),
    )
    transport = SimNetTransport(gateway, latency=0.05, jitter=0.05)
    handles, moves = [], []

    def offer(step):
        i = step % len(clients)
        priority = "move" if step % 7 == 0 else "view" if step % 5 == 0 else None
        tx = sign_transaction(
            clients[i],
            TransferPayload(to=clients[(i + 1) % len(clients)].address, amount=1),
            nonce=step + 1,
        )
        handles.append(transport.submit(tx, 1, client_id=f"c{i}", priority=priority))

    def burst():
        # A move-class wall: the mid-move Move1s behind it park, then shed.
        for k in range(6):
            tx = sign_transaction(
                clients[k], TransferPayload(to=clients[0].address, amount=2),
                nonce=1000 + k,
            )
            handles.append(gateway.submit(tx, 1, client_id=f"c{k}", priority="move"))
        for kp in movers:
            moves.append(gateway.move(kp, kp.address, 1, 2, client_id="mover"))

    gateway.start()
    for step in range(80):
        node.sim.schedule(0.125 * step, offer, step)
    node.sim.schedule(4.3, burst)
    node.run(until=30.0)
    gateway.stop()
    kinds = Counter(record[1] for record in gateway.admission_log)
    assert kinds == {"admit": 52, "shed": 55, "park": 2, "flush": 12}
    evicted = [
        h for h in handles
        if isinstance(h.error, ShedByClass) and "reclaimed" in str(h.error)
    ]
    assert len(evicted) == 16
    assert sum(isinstance(m.error, ShedByClass) for m in moves) == 3
    assert sum(h.receipt is not None for h in handles) == 34
    assert gateway.log_digest() == (
        "b87bf4c0bf53bb13180de17ee7a39e879ba2b10612251bb62515ede97cf2ed2a"
    )
    assert node.chain(1).head.header.state_root.hex() == (
        "a775486e7d4393293fe7a723456a394c389a5245fe14a9ea422d470e6b28500f"
    )


def test_gateway_cli_report_is_pinned(capsys):
    # Derived at ``a286fff`` from ``FleetWorkload`` with the arguments
    # this command passes; throughput counts the offer window only and
    # the p99s rank by ``repro.telemetry.percentile``.
    capsys.readouterr()
    assert main(["gateway", "--json", "--seed", "0"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "blocks": 75,
        "clients": 64,
        "confirmed": 4784,
        "confirmed_by_class": {"bulk": 3661, "move": 409, "view": 714},
        "duration": 120.0,
        "final_root": "ecad6b4ee870703da39617ade2b27d38fbbb19c242b707c4358e2cc26604bbbc",
        "latency_p99_by_class": {"bulk": 113.243, "move": 2.478, "view": 2.48},
        "log_digest": "2b8667f4146fb1c6d29fd8d9cc41e8bc78b3e093ed9503d039d7f64925d5608c",
        "offered_by_class": {"bulk": 6585, "move": 409, "view": 714},
        "offered_rate": 64.0,
        "peak_queue_depth": 1024,
        "replicas": 1,
        "shed_by_class": {"bulk": 2855},
        "shed_codes": {"queue_full": 2855},
        "submitted": 7708,
        "throughput": 31.87,
        "unresolved": 69,
    }


# ----------------------------------------------------------------------
# (f) Transaction ids move, nothing that does not hash them does
# ----------------------------------------------------------------------


def _cli_sha256(capsys, *argv):
    capsys.readouterr()
    assert main(list(argv)) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


def test_telemetry_export_is_pinned(capsys):
    assert _cli_sha256(capsys, "telemetry", "export", "--seed", "11") == (
        "231ed809288e8d4131066690c88cb793697987b46120131c275ee4c625ed7d83"
    )


def test_ibc_kitties_report_is_pinned(capsys):
    digest = _cli_sha256(capsys, "ibc", "--app", "kitties", "--direction", "b2e", "--json")
    assert digest == "abcb16480173162e497dc98e94a9d0bb64f57e74182ccea062025411857d83fc"


def test_scoin_cli_report_is_pinned(capsys):
    # Recorded at ``e8993b0``, while the latency table's samples and
    # percentiles came from a second metrics package.
    argv = ("scoin", "--shards", "2", "--clients", "8", "--cross", "0.1", "--duration", "150")
    assert _cli_sha256(capsys, *argv) == (
        "f7bd12aeb38f6ecc591e73f42ddb81b538e04fefb66374059ca0a19493ea32a1"
    )


def test_trace_cli_series_is_pinned(capsys):
    # Recorded at ``e8993b0``, while the ASCII series was bucketed by a
    # throughput collector in a second metrics package.
    assert _cli_sha256(capsys, "trace", "--shards", "2", "--ops", "300", "--series") == (
        "76ec9ae9fac09d73c2cb495efa58214e9c720164e3d88d8802b29954a5bcaaff"
    )


def test_transaction_ids_are_pinned():
    alice, bob = KeyPair.from_name("alice"), KeyPair.from_name("bob")
    transfer = sign_transaction(alice, TransferPayload(to=bob.address, amount=5), nonce=1)
    assert transfer.signing_bytes() == (
        b"l4:a" + alice.address.raw + b"y32:" + alice.public_key + b"i1;"
        b"l3:s8:transfera" + bob.address.raw + b"i5;"
    )
    assert transfer.tx_id == (
        "199ad7c9c4ae5f12bb9bb7150a2978fcb8cf73c1ca34074cac25fe381da40095"
    )
    args = (1, "as", b"sb", None, True, [2.5], {"k": 1})
    call = sign_transaction(alice, CallPayload(bob.address, "put", args=args), nonce=2)
    assert call.tx_id == (
        "3c382214c4edf9631aa7b4790591abb007d6b78ccd8e9f4523467abab4c38d43"
    )


# ----------------------------------------------------------------------
# (g) One assembler: a chaos report and the Ethereum-sourced IBC moves
# ----------------------------------------------------------------------


def test_chaos_report_is_pinned():
    report = run_chaos(
        13, duration=200.0, workload="scoin", intensity=1.5,
        pow_peer=True, replicate=True, health=True,
    )
    assert report.final_roots == {
        1: "6c91ebf29122420396d1931464bcbac6e80c23de9acf468ea6f349a495bded20",
        2: "8ea921105e469008860f1a8b275403c516f30f3a1804c6af46a345c0d31dfafa",
        3: "8fe6cfedc6cd145102972434a712fbf444fd35278bb5823440ffcd261b82ef72",
    }
    moves = (
        report.moves_started, report.moves_completed,
        report.moves_abandoned, report.move2_retries,
    )
    assert moves == (21, 21, 0, 0)
    replicas = (
        report.replica_updates, report.replica_halts, report.replica_tombstones,
        report.replica_rehomes, report.replica_checks,
    )
    assert replicas == (32, 0, 12, 21, 60)
    assert report.alerts_fired == 1
    assert hashlib.sha256(report.alert_log.encode()).hexdigest() == (
        "0cd7865ebf25912e0a7a98f95d84da0d8ad90ad6f5f004c290a3b3d702619db7"
    )


@pytest.mark.parametrize("app,digest", [
    ("kitties", "c1a672209e4f8fc2565bd1192920b4fa1f894ffc1723b1cd4fdafa7f57edc979"),
    ("store10", "ecc42be3e04b872fb7e1557b41ce0ad760cbfa89c10aed6c1766dc2c7753d0f4"),
])
def test_ethereum_sourced_ibc_reports_are_pinned(capsys, app, digest):
    argv = ("ibc", "--app", app, "--direction", "e2b", "--json")
    assert _cli_sha256(capsys, *argv) == digest


# ----------------------------------------------------------------------
# (h) Every other `ibc --json` report: Move2 gas and timing, both ways
# ----------------------------------------------------------------------


@pytest.mark.parametrize("app,direction,digest", [
    ("scoin", "b2e", "ce665365fe211b2c93e76d819c253a37e836d52dae90ab7fe3f4970420ac4f73"),
    ("scoin", "e2b", "ae998333e32a57c013cd9310361f876970c906f3f3ad71f02942d64d16c3924b"),
    ("store1", "b2e", "c5c8ac98047da387a4fd1383e2a926e05e0eb7414786971a404e68086b842bcc"),
    ("store1", "e2b", "8eb4ad6440d89d5bfd8e5028aac2a450be3b4f02a51a5fe70c1c8e915885d26b"),
    ("store10", "b2e", "637c515440e2064df0cb960c4c6c81889659ac0d541e5d12dc76839081bd94cf"),
    ("store100", "b2e", "3b14b9ea97cb52f347a9317eb0caf5ff6c3ba700da79098d505f225e8c58aca8"),
    ("store100", "e2b", "cbf843d8f3f8f35bfa088e4c1f442ada05b6093baeb6df2ccc8a07afd6cc7452"),
])
def test_ibc_reports_are_pinned(capsys, app, direction, digest):
    argv = ("ibc", "--app", app, "--direction", direction, "--json")
    assert _cli_sha256(capsys, *argv) == digest
