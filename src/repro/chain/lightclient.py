"""Light clients: header stores and the ``VS`` predicate.

Validators/miners of chains that interoperate maintain a light client of
each peer chain (paper Section IV-A): they hold only block headers —
hundreds of bytes, ~2 % of block bodies — and accept a state root ``m``
as trusted only when the header carrying it is at least ``p`` blocks
behind that chain's head.  ``p`` is per-observed-chain configuration
agreed by the interoperating chains (six for Ethereum's fork window,
two for Burrow).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.chain.block import BlockHeader
from repro.errors import StateError


class HeaderStore:
    """Headers of *one* observed chain, linked into branches.

    Every observer keeps this store, whatever the source's consensus:

    * a header is accepted only if it links by hash to a known parent
      exactly one height below it — genesis (height 0) is the only
      exception; any other header raises :class:`StateError` and never
      moves :attr:`head_height`;
    * competing headers coexist as branches, and the **canonical**
      chain is the longest branch (the first-seen tip wins a tie, like
      a node that builds on what it saw first);
    * ``trusted_state_root`` answers only for canonical, ``p``-deep
      headers — a root from an orphaned branch is never trusted, and a
      root that *was* canonical stops validating after a reorg;
    * a reorg that replaces a header which was already ``p``-confirmed
      breaks the protocol's safety assumption (a root peers were
      entitled to trust has been invalidated) — it is **detected** and
      counted in :attr:`deep_reorgs`, never silently absorbed, so
      operators and the chaos invariant checker can flag every Move2
      that may have built on the orphaned side.

    Extending the tip costs O(1); a reorg rewrites the canonical chain
    back to the fork point only.
    """

    def __init__(self, chain_id: int, confirmation_depth: int):
        self.chain_id = chain_id
        self.confirmation_depth = confirmation_depth
        self._by_hash: Dict[bytes, BlockHeader] = {}
        self._canonical: List[bytes] = []  # canonical hash per height
        self.head_height = -1
        #: headers accepted at an occupied height: equivocation evidence
        #: from a BFT source, fork branches from a PoW one
        self.equivocations = 0
        self.reorgs = 0
        #: reorgs that replaced an already-p-confirmed canonical header
        self.deep_reorgs = 0

    def add_header(self, header: BlockHeader) -> None:
        """Ingest a header (relayed or downloaded).

        Exactly-once is *not* assumed: re-delivering a known header is a
        no-op.  A header one above the head becomes the new tip, on
        whichever branch it extends; any other linked header joins a
        branch without moving the head.
        """
        if header.chain_id != self.chain_id:
            raise StateError(
                f"header of chain {header.chain_id} fed to store of {self.chain_id}"
            )
        height = header.height
        if height != 0:
            parent = self._by_hash.get(header.parent_hash)
            if parent is None or parent.height != height - 1:
                raise StateError(
                    f"detached header at height {height}: "
                    f"no known parent at height {height - 1}"
                )
        digest = header.hash()
        if digest in self._by_hash:
            return
        self._by_hash[digest] = header
        if height <= self.head_height:
            self.equivocations += 1
            return
        if height == 0 or header.parent_hash == self._canonical[-1]:
            self._canonical.append(digest)
        else:
            self._reorg(header, digest)
        self.head_height = height

    def _reorg(self, tip: BlockHeader, digest: bytes) -> None:
        """Make ``tip``'s branch canonical, rewriting back to the fork."""
        canonical = self._canonical
        branch = [digest]
        ancestor = tip.parent_hash
        height = tip.height - 1
        while height >= 0 and canonical[height] != ancestor:
            branch.append(ancestor)
            ancestor = self._by_hash[ancestor].parent_hash
            height -= 1
        del canonical[height + 1 :]
        canonical.extend(reversed(branch))
        self.reorgs += 1
        # height + 1 is the deepest header the reorg replaced
        if height + 1 + self.confirmation_depth <= self.head_height:
            self.deep_reorgs += 1

    def header_at(self, height: int) -> Optional[BlockHeader]:
        """The canonical header at ``height``, if any."""
        if 0 <= height <= self.head_height:
            return self._by_hash[self._canonical[height]]
        return None

    def is_canonical(self, header: BlockHeader) -> bool:
        """Is this header on the current longest branch?"""
        height = header.height
        return (
            0 <= height <= self.head_height
            and self._canonical[height] == header.hash()
        )

    def is_confirmed(self, height: int) -> bool:
        """Is the block at ``height`` at least ``p`` behind the head?"""
        return height + self.confirmation_depth <= self.head_height

    def trusted_state_root(self, height: int) -> Optional[bytes]:
        """The root ``m`` carried by the canonical header at ``height`` —
        only if that header is sufficiently confirmed; else None.

        This is one half of ``VS(B, m)``; the caller compares the
        returned root with the one the proof claims.
        """
        if height < 0 or not self.is_confirmed(height):
            return None
        return self._by_hash[self._canonical[height]].state_root


class LightClient:
    """A node's collection of header stores, one per observed chain."""

    def __init__(self) -> None:
        self._stores: Dict[int, HeaderStore] = {}

    def observe(self, chain_id: int, confirmation_depth: int) -> HeaderStore:
        """Start (or fetch) the store for a peer chain."""
        store = self._stores.get(chain_id)
        if store is None:
            store = HeaderStore(chain_id, confirmation_depth)
            self._stores[chain_id] = store
        return store

    def store_for(self, chain_id: int) -> Optional[HeaderStore]:
        """The header store of an observed chain, or None."""
        return self._stores.get(chain_id)

    def add_header(self, header: BlockHeader) -> None:
        """Route a header to its chain's store (must be observed)."""
        store = self._stores.get(header.chain_id)
        if store is None:
            raise StateError(f"not observing chain {header.chain_id}")
        store.add_header(header)

    def valid_state_root(self, chain_id: int, height: int, claimed_root: bytes) -> bool:
        """``VS(B, m)``: is ``claimed_root`` the confirmed root of
        chain ``B`` at ``height``?"""
        store = self._stores.get(chain_id)
        if store is None:
            return False
        trusted = store.trusted_state_root(height)
        return trusted is not None and trusted == claimed_root
