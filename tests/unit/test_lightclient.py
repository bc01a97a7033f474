"""Unit tests for header stores and the VS predicate."""

import pytest

from repro.chain.block import GENESIS_PARENT, BlockHeader
from repro.chain.chain import Chain
from repro.chain.lightclient import HeaderStore, LightClient
from repro.chain.params import burrow_params
from repro.crypto.hashing import keccak
from repro.errors import StateError
from repro.ibc.headers import connect_chains

from tests.helpers import ManualClock, produce


def header(chain_id, height, root=None, parent=None, tag=""):
    return BlockHeader(
        chain_id=chain_id,
        height=height,
        parent_hash=parent.hash() if parent is not None else GENESIS_PARENT,
        state_root=root if root is not None else keccak(f"root-{height}{tag}".encode()),
        txs_root=keccak(b"txs"),
        timestamp=float(height),
        proposer=tag,
    )


def linked(chain_id, length, roots=None):
    """Headers 0..length-1, each linked to the one before."""
    headers = []
    parent = None
    for height in range(length):
        root = (roots or {}).get(height)
        parent = header(chain_id, height, root, parent)
        headers.append(parent)
    return headers


def fill(store, headers):
    for h in headers:
        store.add_header(h)
    return headers


def test_store_tracks_head():
    store = HeaderStore(chain_id=1, confirmation_depth=2)
    fill(store, linked(1, 6))
    assert store.head_height == 5


def test_header_before_its_parent_is_refused():
    store = HeaderStore(chain_id=1, confirmation_depth=2)
    headers = linked(1, 6)
    fill(store, headers[:3])
    with pytest.raises(StateError, match="detached"):
        store.add_header(headers[4])
    assert store.head_height == 2
    fill(store, headers[3:])  # in order again: accepted
    assert store.head_height == 5


def test_wrong_chain_header_rejected():
    store = HeaderStore(chain_id=1, confirmation_depth=2)
    with pytest.raises(StateError):
        store.add_header(header(2, 0))


def test_confirmation_depth_gates_trust():
    store = HeaderStore(chain_id=1, confirmation_depth=2)
    root = keccak(b"the-root")
    headers = linked(1, 13, roots={10: root})
    fill(store, headers[:11])
    assert store.trusted_state_root(10) is None  # head == height
    store.add_header(headers[11])
    assert store.trusted_state_root(10) is None  # only 1 deep
    store.add_header(headers[12])
    assert store.trusted_state_root(10) == root  # exactly p deep


def test_unknown_height_untrusted():
    store = HeaderStore(chain_id=1, confirmation_depth=0)
    fill(store, linked(1, 4))
    assert store.trusted_state_root(4) is None
    assert store.trusted_state_root(-1) is None
    assert store.header_at(4) is None


def test_redelivery_is_a_no_op():
    store = HeaderStore(chain_id=1, confirmation_depth=1)
    headers = fill(store, linked(1, 4))
    fill(store, headers)
    assert store.head_height == 3
    assert (store.equivocations, store.reorgs) == (0, 0)


def test_light_client_vs_predicate():
    lc = LightClient()
    store = lc.observe(chain_id=1, confirmation_depth=1)
    root = keccak(b"r")
    for h in linked(1, 6, roots={4: root}):
        lc.add_header(h)
    assert store.head_height == 5
    assert lc.valid_state_root(1, 4, root)
    assert not lc.valid_state_root(1, 4, keccak(b"other"))
    assert not lc.valid_state_root(1, 5, keccak(b"r5"))  # unconfirmed
    assert not lc.valid_state_root(99, 4, root)  # unobserved chain


def test_light_client_rejects_unobserved_ingest():
    lc = LightClient()
    with pytest.raises(StateError):
        lc.add_header(header(1, 0))


def test_observe_is_idempotent():
    lc = LightClient()
    a = lc.observe(1, 2)
    b = lc.observe(1, 2)
    assert a is b


# ----------------------------------------------------------------------
# The trust boundary: a header that does not link never moves the head
# ----------------------------------------------------------------------


def test_height_skip_with_a_known_parent_is_refused():
    store = HeaderStore(chain_id=1, confirmation_depth=2)
    headers = fill(store, linked(1, 6))
    skip = header(1, 10**6, keccak(b"forged"), parent=headers[5], tag="skip")
    with pytest.raises(StateError, match="detached"):
        store.add_header(skip)
    assert store.head_height == 5
    # Nothing above height 3 became p-confirmed.
    assert store.trusted_state_root(4) is None
    assert store.trusted_state_root(3) == headers[3].state_root


def test_detached_far_future_header_on_a_burrow_observer_is_refused():
    source = Chain(burrow_params(1))
    observer = Chain(burrow_params(2))
    connect_chains([source, observer])
    produce(source, ManualClock(), 5)
    store = observer.light_client.store_for(1)
    assert store.head_height == source.height
    forged_root = keccak(b"forged")
    forged = BlockHeader(
        chain_id=1,
        height=10**6,
        parent_hash=keccak(b"nowhere"),
        state_root=forged_root,
        txs_root=keccak(b"txs"),
        timestamp=1e6,
        proposer="forger",
    )
    with pytest.raises(StateError, match="detached"):
        observer.ingest_header(forged)
    assert store.head_height == source.height
    for height in range(source.height + 1):
        assert not observer.light_client.valid_state_root(1, height, forged_root)
    honest = source.blocks[source.height - 2].header
    assert observer.light_client.valid_state_root(1, honest.height, honest.state_root)


def test_equivocating_header_that_lands_first_is_displaced():
    # The relay delays the honest head; a fake at the same height (same
    # parent) arrives first and wins the tie, until the honest chain
    # grows past it.
    store = HeaderStore(chain_id=1, confirmation_depth=2)
    honest = linked(1, 9)
    fill(store, honest[:5])
    fake = header(1, 5, keccak(b"fake"), parent=honest[4], tag="equivocator")
    store.add_header(fake)
    store.add_header(honest[5])  # the tie: first seen stays canonical
    assert store.header_at(5) == fake
    assert store.equivocations == 1
    store.add_header(honest[6])  # the honest branch is longer now
    assert store.header_at(5) == honest[5]
    assert store.is_canonical(honest[5])
    assert not store.is_canonical(fake)
    assert (store.reorgs, store.deep_reorgs) == (1, 0)
    fill(store, honest[7:])
    assert store.trusted_state_root(5) == honest[5].state_root
