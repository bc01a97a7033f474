"""Transaction signatures.

:class:`SimulatedSigner` is a deterministic hash-based scheme whose
signatures are verifiable by any party inside the simulation.  It is
*not* cryptographically unforgeable (the "private key" is derivable
from the seed), which is irrelevant here: the paper measures latency
and gas, not signature security, and the simulator is a closed world.
Its public key is the one a :class:`~repro.crypto.keys.KeyPair`
derives from its 32-byte seed.
"""

from __future__ import annotations

from repro.crypto.hashing import keccak


class SimulatedSigner:
    """Fast deterministic signatures for large simulations.

    ``sig = H("sig", pub, H("pub", seed-derivation), msg)`` — the
    verifier recomputes the same digest from the public key it already
    trusts, so honest-path verification behaves exactly like a real
    scheme inside the closed simulation world.
    """

    def public_key(self, seed: bytes) -> bytes:
        """Hash-derived public key (the in-simulation identity)."""
        return keccak(b"pub", seed)

    def sign(self, seed: bytes, message: bytes) -> bytes:
        """Deterministic hash signature over (public key, message)."""
        public = keccak(b"pub", seed)
        return keccak(b"sig", public, message)

    def verify(self, public_key: bytes, message: bytes, signature: bytes) -> bool:
        """Recompute and compare the hash signature."""
        return signature == keccak(b"sig", public_key, message)
