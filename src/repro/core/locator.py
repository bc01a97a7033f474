"""Client-side contract discovery (paper Section III-G b).

``L_c`` has two logical states: "here" or "moved to chain X".  A client
that lost track of a contract follows the trail: query the last known
chain; if the record says it moved, hop to the named chain; repeat.
With correctly implemented ``moveTo``/``moveFinish`` the trail always
terminates at the active copy.  A client that watches every chain
reads the answer directly instead (:func:`active_chain`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional

from repro.crypto.keys import Address
from repro.errors import StateError

#: callback: chain_id -> (exists, location) for a contract address
LocationQuery = Callable[[int, Address], Optional[int]]

#: how many chains a trail may visit before :meth:`ContractLocator.locate` gives up
MAX_HOPS = 16


def active_chain(chains: Iterable, address: Address):
    """The first of ``chains`` holding the active copy of a contract —
    the one whose record's ``L_c`` names itself — or None (unknown to
    all of them, or in transit between Move1 and Move2)."""
    for chain in chains:
        if chain.location_of(address) == chain.chain_id:
            return chain
    return None


class ContractLocator:
    """Follows the ``L_c`` trail across a set of queryable chains.

    ``query(chain_id, address)`` must return the contract's ``L_c`` as
    recorded on that chain, or ``None`` when the chain has no record.
    """

    def __init__(self, query: LocationQuery):
        self._query = query

    @classmethod
    def over_chains(cls, chains) -> "ContractLocator":
        """Locator backed by live :class:`~repro.chain.chain.Chain`
        objects (a client holding light connections to each)."""
        by_id = {chain.chain_id: chain for chain in chains}

        def query(chain_id: int, address: Address) -> Optional[int]:
            chain = by_id.get(chain_id)
            if chain is None:
                return None
            return chain.location_of(address)

        return cls(query)

    def locate(self, address: Address, start_chain: int) -> int:
        """Return the chain id where the contract is currently active.

        Raises :class:`StateError` when no chain on the trail knows the
        contract or the trail does not terminate (cycle without an
        active copy — impossible with correct hooks, but bounded here).
        """
        chain = start_chain
        seen: Dict[int, int] = {}
        for _hop in range(MAX_HOPS):
            location = self._query(chain, address)
            if location is None:
                raise StateError(
                    f"chain {chain} has no record of contract {address}"
                )
            if location == chain:
                return chain
            if seen.get(chain) == location:
                raise StateError(
                    f"location trail cycles between {chain} and {location} "
                    "without an active copy (incomplete move?)"
                )
            seen[chain] = location
            chain = location
        raise StateError(f"location trail exceeded {MAX_HOPS} hops")
