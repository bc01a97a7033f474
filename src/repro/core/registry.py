"""Registry of interoperating chains and their agreed parameters.

Section IV-A: chains willing to support the Move protocol must agree on
configured parameters — most importantly each chain's confirmation
depth ``p`` and (for proof verification) its commitment-tree flavour.
Every node holds the same registry, the analogue of the protocol's
shared configuration.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterator

from repro.errors import StateError

if TYPE_CHECKING:  # annotations only; see repro.core.move
    from repro.chain.params import ChainParams


class ChainRegistry:
    """Immutable-ish map from chain id to agreed parameters."""

    def __init__(self) -> None:
        self._params: Dict[int, ChainParams] = {}

    def register(self, params: ChainParams) -> None:
        """Add a chain's agreed parameters (idempotent per instance)."""
        existing = self._params.get(params.chain_id)
        if existing is not None and existing is not params:
            raise StateError(f"chain id {params.chain_id} already registered")
        self._params[params.chain_id] = params

    def params_for(self, chain_id: int) -> ChainParams:
        """Parameters of a registered chain (StateError if unknown)."""
        params = self._params.get(chain_id)
        if params is None:
            raise StateError(f"unknown chain id {chain_id}")
        return params

    def __contains__(self, chain_id: int) -> bool:
        return chain_id in self._params

    def __iter__(self) -> Iterator[ChainParams]:
        return iter(self._params.values())

    def __len__(self) -> int:
        return len(self._params)
