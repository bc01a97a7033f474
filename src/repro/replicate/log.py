"""Source-side capture of per-block storage deltas.

``Chain.prove_contract_at`` refuses to serve a proof once the live
record diverges from the requested historical root — correct for Move2
(the contract is locked while the proof is in flight) but useless for
replicating a *hot* contract that keeps mutating.  The
:class:`ReplicationLog` closes that gap: the chain records, for each
replicated contract, exactly which slots each block wrote (captured
from the world state's dirty-slot sets just before commit), so a
replica update for any retained height is a cheap dictionary merge
instead of a full-state walk.  The account proof for that height is
the one captured when it committed (the chain proves every replicated
contract at every block, as it proves Move1s), looked up as for any
proof but with no live-record check: the slots come from here.  The
target applies a delta to the storage its mirror record serves.

The log holds a **base image** (the full storage dict as of
``base_height``) plus one delta per subsequent block.  Deltas older
than the chain's ``snapshot_retention`` horizon are folded into the
base — a height whose proof is gone can't be proven anyway, so nothing
is lost by forgetting how to reach it.  Wholesale storage replacement
(Move2 recreation, GC wipes) rebases the log on the full post-block
image, forcing the next update to be a full resync.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Mapping, Optional

from repro.errors import ProofError


class ReplicationLog:
    """Delta history of one contract's storage, one entry per block."""

    def __init__(self, base_height: int, base_image: Mapping[bytes, bytes]):
        self.base_height = base_height
        self._base: Dict[bytes, bytes] = {
            key: value for key, value in base_image.items() if value
        }
        #: height -> {slot: value}, ``b""`` marking a delete; insertion
        #: order is ascending height (produce_block appends every block)
        self._deltas: "OrderedDict[int, Dict[bytes, bytes]]" = OrderedDict()
        self.rebases = 0

    @property
    def head_height(self) -> int:
        """Newest height the log can reproduce."""
        return next(reversed(self._deltas)) if self._deltas else self.base_height

    def append(self, height: int, changes: Mapping[bytes, bytes]) -> None:
        """Record one block's slot writes (may be empty)."""
        self._deltas[height] = dict(changes)

    def rebase(self, height: int, image: Mapping[bytes, bytes]) -> None:
        """Reset to a full image (after a wholesale storage swap)."""
        self._base = {key: value for key, value in image.items() if value}
        self.base_height = height
        self._deltas.clear()
        self.rebases += 1

    def trim(self, horizon: int) -> None:
        """Fold deltas at heights ``<= horizon`` into the base image."""
        while self._deltas:
            height = next(iter(self._deltas))
            if height > horizon:
                break
            self._fold(self._base, self._deltas.pop(height))
            self.base_height = height

    def delta_between(
        self, since: int, upto: int
    ) -> Optional[Dict[bytes, bytes]]:
        """Merged slot changes over ``(since, upto]``, or ``None`` when
        the window is not fully covered by retained deltas (the caller
        falls back to a full-image update)."""
        if since < self.base_height or upto < since or upto > self.head_height:
            return None
        merged: Dict[bytes, bytes] = {}
        for height in range(since + 1, upto + 1):
            delta = self._deltas.get(height)
            if delta is None:
                return None
            merged.update(delta)
        return merged

    def image_at(self, upto: int) -> Dict[bytes, bytes]:
        """Full storage image as of the post-state of block ``upto``."""
        if upto < self.base_height or upto > self.head_height:
            raise ProofError(
                f"replication log covers [{self.base_height}, "
                f"{self.head_height}], not {upto}"
            )
        image = dict(self._base)
        for height, delta in self._deltas.items():
            if height > upto:
                break
            self._fold(image, delta)
        return image

    @staticmethod
    def _fold(image: Dict[bytes, bytes], delta: Mapping[bytes, bytes]) -> None:
        for key, value in delta.items():
            if value:
                image[key] = value
            else:
                image.pop(key, None)
