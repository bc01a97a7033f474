"""Fork handling in the light client — the reason p exists (§IV-A).

"Interoperability in permissionless systems is challenging mainly
because forks can occur ... which invalidates transactions that build
on the losing side of the fork."
"""

import pytest

from repro.chain.block import GENESIS_PARENT, BlockHeader
from repro.chain.lightclient import HeaderStore, LightClient
from repro.crypto.hashing import keccak
from repro.errors import StateError


def header(parent, height, tag):
    return BlockHeader(
        chain_id=1,
        height=height,
        parent_hash=parent.hash() if parent is not None else GENESIS_PARENT,
        state_root=keccak(f"root-{tag}".encode()),
        txs_root=keccak(b"txs"),
        timestamp=float(height),
        proposer=tag,
    )


@pytest.fixture
def store():
    return HeaderStore(chain_id=1, confirmation_depth=2)


def build_chain(store, length, tag, base=None):
    headers = []
    parent = base
    start = (base.height + 1) if base is not None else 0
    for height in range(start, start + length):
        h = header(parent, height, f"{tag}-{height}")
        store.add_header(h)
        headers.append(h)
        parent = h
    return headers


def test_linear_chain_trusts_confirmed_roots(store):
    headers = build_chain(store, 6, "main")
    assert store.trusted_state_root(3) == headers[3].state_root
    assert store.trusted_state_root(4) is None  # only 1 deep
    assert store.head_height == 5


def test_detached_header_rejected(store):
    build_chain(store, 3, "main")
    orphan_parent = header(None, 0, "elsewhere")
    detached = header(orphan_parent, 1, "detached")
    with pytest.raises(StateError, match="detached"):
        store.add_header(detached)


def test_short_fork_does_not_displace_first_seen(store):
    main = build_chain(store, 5, "main")
    # Competing block at height 4 (same parent as main[4]).
    rival = header(main[3], 4, "rival")
    store.add_header(rival)
    # Same height: first seen stays canonical.
    assert store.is_canonical(main[4])
    assert not store.is_canonical(rival)


def test_reorg_switches_canonical_chain_and_invalidates_roots(store):
    main = build_chain(store, 6, "main")
    # Fork from height 3: attacker/branch builds 4', 5', 6', 7'.
    branch = build_chain(store, 4, "branch", base=main[3])
    assert store.reorgs >= 1
    # The new branch is longer: its headers are canonical now.
    assert store.is_canonical(branch[-1])
    assert not store.is_canonical(main[5])
    assert not store.is_canonical(main[4])
    # A root from the orphaned side is no longer trusted, even though
    # it *was* 2-confirmed before the reorg.
    assert store.trusted_state_root(4) != main[4].state_root
    assert store.trusted_state_root(4) == branch[0].state_root
    # Common prefix stays trusted.
    assert store.trusted_state_root(2) == main[2].state_root


def test_orphaned_root_never_trusted_via_light_client():
    lc = LightClient()
    store = lc.observe(1, confirmation_depth=2)
    main = build_chain(store, 5, "main")
    branch = build_chain(store, 4, "branch", base=main[2])
    # VS for the orphaned block 3/4 roots fails; branch roots pass once
    # deep enough.
    assert not lc.valid_state_root(1, 3, main[3].state_root)
    assert not lc.valid_state_root(1, 4, main[4].state_root)
    assert lc.valid_state_root(1, 3, branch[0].state_root)


def test_deep_confirmation_rides_out_short_forks(store):
    # p = 2 protects against 1-block forks: any root that was p-deep
    # before a 1-block reorg remains canonical after it.
    main = build_chain(store, 6, "main")
    rival_tip = header(main[4], 5, "rival-tip")
    store.add_header(rival_tip)
    confirmed_before = [store.trusted_state_root(h) for h in range(4)]
    longer = header(rival_tip, 6, "rival-6")
    store.add_header(longer)  # 1-block reorg at the tip
    confirmed_after = [store.trusted_state_root(h) for h in range(4)]
    assert confirmed_before == confirmed_after
