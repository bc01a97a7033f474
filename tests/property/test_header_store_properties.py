"""Property: the header store agrees with a from-scratch reference.

Hypothesis draws header trees — competing branches, re-deliveries,
detached headers, height skips, second geneses, foreign-chain headers —
and delivers them out of order.  After every ingest the incremental
:class:`HeaderStore` must answer exactly as :class:`Reference`, which
keeps only the accepted headers in arrival order and recomputes
everything from them:

* a header is accepted iff it is genesis or its parent was accepted at
  exactly ``height - 1``;
* the canonical chain is the longest linked branch, ending in the
  first-seen header of the greatest height;
* a reorg is an ingest after which the old canonical chain is no longer
  a prefix of the new one; it is deep if the lowest replaced height was
  already ``p`` deep.
"""

from typing import List, Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.block import GENESIS_PARENT, BlockHeader
from repro.chain.lightclient import HeaderStore
from repro.crypto.hashing import keccak
from repro.errors import StateError

CHAIN = 1


def _header(height: int, parent_hash: bytes, tag: str, chain_id: int = CHAIN):
    return BlockHeader(
        chain_id=chain_id,
        height=height,
        parent_hash=parent_hash,
        state_root=keccak(f"root-{tag}".encode()),
        txs_root=keccak(b"txs"),
        timestamp=float(height),
        proposer=tag,
    )


class Reference:
    """Everything recomputed from the accepted headers on every query."""

    def __init__(self, confirmation_depth: int):
        self.p = confirmation_depth
        self.accepted: List[BlockHeader] = []
        self.equivocations = 0
        self.reorgs = 0
        self.deep_reorgs = 0

    def by_hash(self):
        return {h.hash(): h for h in self.accepted}

    def canonical(self) -> List[BlockHeader]:
        if not self.accepted:
            return []
        top = max(h.height for h in self.accepted)
        tip = next(h for h in self.accepted if h.height == top)
        by_hash = self.by_hash()
        chain = [tip]
        while chain[-1].height > 0:
            chain.append(by_hash[chain[-1].parent_hash])
        return chain[::-1]

    def add(self, header: BlockHeader) -> bool:
        """Ingest; False iff the store must refuse the header."""
        by_hash = self.by_hash()
        if header.chain_id != CHAIN:
            return False
        if header.height != 0:
            parent = by_hash.get(header.parent_hash)
            if parent is None or parent.height != header.height - 1:
                return False
        if header.hash() in by_hash:
            return True
        before = self.canonical()
        if header.height < len(before):
            self.equivocations += 1
        self.accepted.append(header)
        after = self.canonical()
        if after[: len(before)] != before:
            self.reorgs += 1
            lowest = next(i for i, h in enumerate(before) if after[i] != h)
            if lowest + self.p <= len(before) - 1:
                self.deep_reorgs += 1
        return True

    def trusted_state_root(self, height: int) -> Optional[bytes]:
        chain = self.canonical()
        if 0 <= height and height + self.p <= len(chain) - 1:
            return chain[height].state_root
        return None


@st.composite
def deliveries(draw):
    """A header tree and the order (with repeats) it arrives in."""
    pool = [_header(0, GENESIS_PARENT, "g")]
    children = [pool[0]]
    for i in range(draw(st.integers(1, 30))):
        kind = draw(
            st.sampled_from(
                ["child"] * 10 + ["skip", "same-height", "detached", "genesis", "foreign"]
            )
        )
        # Mostly extend a recent child, so branches grow long.
        low = draw(st.sampled_from([0, max(0, len(children) - 3), len(children) - 1]))
        parent = children[draw(st.integers(low, len(children) - 1))]
        tag = f"{kind}-{i}"
        if kind == "child":
            children.append(_header(parent.height + 1, parent.hash(), tag))
            pool.append(children[-1])
        elif kind == "skip":
            gap = draw(st.sampled_from([2, 3, 10**6]))
            pool.append(_header(parent.height + gap, parent.hash(), tag))
        elif kind == "same-height":
            pool.append(_header(parent.height, parent.hash(), tag))
        elif kind == "detached":
            pool.append(_header(parent.height + 1, keccak(tag.encode()), tag))
        elif kind == "genesis":
            pool.append(_header(0, GENESIS_PARENT, tag))
        else:
            pool.append(_header(parent.height + 1, parent.hash(), tag, chain_id=2))
    order = list(range(len(pool)))
    for _ in range(draw(st.integers(0, 4))):  # local swaps: late arrivals
        i = draw(st.integers(0, len(order) - 1))
        j = min(len(order) - 1, i + draw(st.integers(1, 3)))
        order[i], order[j] = order[j], order[i]
    for _ in range(draw(st.integers(0, 6))):  # re-deliveries
        order.insert(
            draw(st.integers(0, len(order))), draw(st.integers(0, len(pool) - 1))
        )
    return [pool[i] for i in order], pool


@given(deliveries(), st.integers(0, 3))
@settings(max_examples=300, deadline=None)
def test_store_matches_the_reference_after_every_ingest(delivered, depth):
    headers, pool = delivered
    store = HeaderStore(CHAIN, depth)
    reference = Reference(depth)
    for header in headers:
        expected = reference.add(header)
        try:
            store.add_header(header)
            accepted = True
        except StateError:
            accepted = False
        assert accepted == expected
        canonical = reference.canonical()
        assert store.head_height == len(canonical) - 1
        for height in range(-1, len(canonical) + 1):
            assert store.trusted_state_root(height) == reference.trusted_state_root(
                height
            )
            expected_header = canonical[height] if 0 <= height < len(canonical) else None
            assert store.header_at(height) == expected_header
        for candidate in pool:
            assert store.is_canonical(candidate) == (
                candidate.chain_id == CHAIN
                and 0 <= candidate.height < len(canonical)
                and canonical[candidate.height] == candidate
            )
        assert (store.reorgs, store.deep_reorgs, store.equivocations) == (
            reference.reorgs,
            reference.deep_reorgs,
            reference.equivocations,
        )
