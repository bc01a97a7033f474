"""Property: a replica only ever serves committed source states.

Hypothesis drives a random interleaving of contract writes, empty
blocks and (in the fork property) injected reorgs against a replicated
StoreContract, and after **every** block re-asserts the sync
protocol's contract:

* a ``LIVE`` mirror's image equals the source's committed storage at
  exactly one height — byte-for-byte, so a reader can never observe a
  torn half-applied update;
* that height is never more than the staleness bound (``p +
  state_root_lag`` source blocks) behind the source head, and never
  regresses;
* reads served off the replica return the values the source had
  committed at the synced height;
* when the branch a mirror's proofs lived on is orphaned, the mirror
  is ``HALTED`` and its storage wiped — fork-only state is never
  served, not even transiently.

The whole run is a pure function of the drawn operation list, so a
failing example shrinks to a minimal write/block/fork schedule.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import BlockHeader
from repro.chain.chain import Chain
from repro.chain.params import burrow_params
from repro.core.registry import ChainRegistry
from repro.crypto.hashing import keccak
from repro.ibc.headers import connect_chains
from repro.replicate.mirror import HALTED, LIVE
from repro.replicate.relay import ReplicationRelay
from tests.helpers import ALICE, CallPayload, ManualClock, deploy_store, run_tx

#: burrow staleness bound: confirmation_depth (1) + state_root_lag (1)
BOUND = 2

# Operation alphabet: None = empty block, (key, value) = a put + block.
_WRITE = st.tuples(st.integers(0, 5), st.integers(0, 1000))
OPS = st.lists(st.one_of(st.none(), _WRITE), min_size=4, max_size=20)
# Fork property adds rare "fork" ops (reorg injection).
FORK_OPS = st.lists(
    st.one_of(st.none(), _WRITE, st.just("fork")), min_size=6, max_size=20
)


def _setup():
    registry = ChainRegistry()
    source = Chain(burrow_params(1), registry)
    target = Chain(burrow_params(2), registry)
    connect_chains([source, target])
    clock = ManualClock()
    address = deploy_store(source, clock, ALICE)
    relay = ReplicationRelay(source, target)
    relay.start()
    mirror = relay.add_contract(address)
    return source, target, clock, address, relay, mirror


class _Oracle:
    """Committed source state per height: raw storage + decoded model."""

    def __init__(self, source, address):
        self.source = source
        self.address = address
        self.storage = {}  # height -> raw slot dict (bytes -> bytes)
        self.model = {}  # height -> {key: value} as a client sees it
        self.kv = {}

    def record(self, writes=None):
        if writes:
            self.kv.update(writes)
        record = self.source.state.contract(self.address)
        self.storage[self.source.height] = dict(record.storage)
        self.model[self.source.height] = dict(self.kv)


def _check(source, target, address, mirror, oracle, prev_synced):
    if mirror.status == LIVE:
        height = mirror.synced_height
        # Within the bound, never regressing.
        assert mirror.staleness(source.height) <= BOUND
        assert height >= prev_synced
        # The image IS a committed state: byte-identical to what the
        # source had at exactly that height (no tearing, no mixing).
        assert height in oracle.storage
        assert target.state.contract(address).storage == oracle.storage[height]
        # And reads decode to the values committed at that height.
        for key, value in oracle.model[height].items():
            assert target.view(address, "get_value", key) == value
        return height
    return prev_synced if mirror.status != HALTED else -1


@given(ops=OPS)
@settings(max_examples=25, deadline=None)
def test_live_mirror_equals_a_committed_source_state_within_bound(ops):
    source, target, clock, address, relay, mirror = _setup()
    oracle = _Oracle(source, address)
    oracle.record()
    prev = -1
    for op in ops:
        if op is None:
            source.produce_block(clock.tick())
            oracle.record()
        else:
            key, value = op
            receipt = run_tx(
                source, clock, ALICE, CallPayload(address, "put", (key, value))
            )
            assert receipt.success, receipt.error
            oracle.record(writes={key: value})
        prev = _check(source, target, address, mirror, oracle, prev)
    # Liveness: with writes committed and headers flowing, the mirror
    # is LIVE by the end of any schedule long enough to confirm them.
    if len(ops) >= 4:
        assert mirror.status == LIVE


@given(ops=OPS)
@settings(max_examples=10, deadline=None)
def test_replication_runs_are_a_pure_function_of_the_schedule(ops):
    traces = []
    for _ in range(2):
        source, target, clock, address, relay, mirror = _setup()
        trace = []
        for op in ops:
            if op is None:
                source.produce_block(clock.tick())
            else:
                run_tx(source, clock, ALICE, CallPayload(address, "put", op))
            served = target.state.contract(address)
            trace.append((
                mirror.status, mirror.synced_height, relay.updates,
                dict(served.storage) if served is not None else None,
            ))
        traces.append(trace)
    assert traces[0] == traces[1]


def _forge_reorg(store, mirror):
    """Graft a longer branch below the mirror's applied header."""
    applied = mirror.applied_header
    parent = store.header_at(applied.height - 1)
    for offset in range(store.head_height - applied.height + 3):
        parent = BlockHeader(
            chain_id=parent.chain_id,
            height=parent.height + 1,
            parent_hash=parent.hash(),
            state_root=keccak(f"forged-{parent.height}-{offset}".encode()),
            txs_root=keccak(b"txs"),
            timestamp=float(parent.height + 1),
            proposer="forger",
        )
        store.add_header(parent)


@given(ops=FORK_OPS)
@settings(max_examples=15, deadline=None)
def test_fork_only_state_is_never_served(ops):
    source, target, clock, address, relay, mirror = _setup()
    store = target.light_client.store_for(source.chain_id)
    oracle = _Oracle(source, address)
    oracle.record()
    prev = -1
    for op in ops:
        if op == "fork":
            if mirror.status == LIVE:
                _forge_reorg(store, mirror)
                relay.sync_all()
                # Orphaned immediately: unavailable and wiped, with
                # nothing left for a raw chain.view to serve either.
                assert mirror.status == HALTED
                assert target.state.contract(address).storage == {}
                assert not target.state.is_mirror(address)
                prev = -1
            continue
        if op is None:
            source.produce_block(clock.tick())
            oracle.record()
        else:
            run_tx(source, clock, ALICE, CallPayload(address, "put", op))
            oracle.record(writes={op[0]: op[1]})
        # Whatever branch won, a serving mirror sits on the canonical
        # one and reproduces a committed (real) source state.
        if mirror.status == LIVE:
            assert store.is_canonical(mirror.applied_header)
        prev = _check(source, target, address, mirror, oracle, prev)
