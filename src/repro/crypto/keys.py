"""Accounts, addresses and address-derivation rules.

The paper (Section III-G) requires that interacting blockchains use the
same rule to derive account identifiers, and that contract addresses
incorporate the *creating* blockchain's identifier so contract ids are
unique system-wide.  A contract therefore keeps its address as it moves:
the creating chain's id is baked in at creation time.

Addresses are 20 bytes, shown as ``0x``-prefixed hex.
"""

from __future__ import annotations

from collections import _tuplegetter  # namedtuple's field accessor, in C
from dataclasses import dataclass, field

from repro.crypto.hashing import keccak

ADDRESS_SIZE = 20


class Address(tuple):
    """A 20-byte account or contract identifier: an immutable record.

    A 1-tuple underneath, so hashing, equality and ordering run in C —
    every state dict, dirty set and sort keyed by an address pays no
    Python-level call.  ``hash(Address(r)) == hash((r,))``, the value a
    one-field frozen dataclass hashes to, and addresses order by their
    bytes.  One consequence of the layout: **an ``Address`` equals the
    1-tuple of its bytes** (``Address(r) == (r,)``), though never the
    bytes themselves nor their hex string.
    """

    __slots__ = ()

    raw = _tuplegetter(0, "The 20 address bytes.")

    def __new__(cls, raw: bytes) -> "Address":
        if len(raw) != ADDRESS_SIZE:
            raise ValueError(f"address must be {ADDRESS_SIZE} bytes, got {len(raw)}")
        return tuple.__new__(cls, (raw,))

    def __getnewargs__(self):
        return (self[0],)

    @classmethod
    def from_hex(cls, text: str) -> "Address":
        """Parse an address from ``0x``-prefixed (or bare) hex."""
        if text.startswith("0x") or text.startswith("0X"):
            text = text[2:]
        return cls(bytes.fromhex(text))

    @property
    def hex(self) -> str:
        return "0x" + self.raw.hex()

    def __str__(self) -> str:  # pragma: no cover - repr convenience
        return self.hex

    def __repr__(self) -> str:  # pragma: no cover - repr convenience
        return f"Address({self.hex!r})"


def derive_address(public_key: bytes) -> Address:
    """Derive an account address from a public key (last 20 digest bytes)."""
    return Address(keccak(public_key)[-ADDRESS_SIZE:])


def contract_address(chain_id: int, creator: Address, creator_nonce: int) -> Address:
    """CREATE-style contract address.

    Unlike vanilla Ethereum, the creating blockchain's ``chain_id`` is
    mixed in (paper Section III-G) so identifiers never collide across
    chains and remain stable when the contract moves.
    """
    payload = (
        chain_id.to_bytes(8, "big")
        + creator.raw
        + creator_nonce.to_bytes(8, "big")
    )
    return Address(keccak(b"create1", payload)[-ADDRESS_SIZE:])


def create2_address(
    chain_id: int, creator: Address, salt: int, code_hash: bytes
) -> Address:
    """CREATE2-style deterministic contract address (EIP-1014 analogue).

    SCoin's origin attestation (Section V-A) relies on this: given a
    sibling account's salt, any ``SAccount`` can recompute the sibling's
    address from the shared parent address and code hash, proving both
    were created by the same token contract — one cheap hash, no Merkle
    proof needed.
    """
    payload = (
        chain_id.to_bytes(8, "big")
        + creator.raw
        + salt.to_bytes(32, "big")
        + code_hash
    )
    return Address(keccak(b"create2", payload)[-ADDRESS_SIZE:])


@dataclass
class KeyPair:
    """A client key pair.

    ``seed`` deterministically derives both the (simulated or real)
    private key and the public key; the address is derived from the
    public key with the shared rule, so — per Section III-G — the same
    key pair controls the same address on every chain.
    """

    seed: bytes
    public_key: bytes = field(init=False)
    address: Address = field(init=False)

    def __post_init__(self) -> None:
        self.public_key = keccak(b"pub", self.seed)
        self.address = derive_address(self.public_key)

    @classmethod
    def from_name(cls, name: str) -> "KeyPair":
        """Derive a key pair from a human-readable name (tests, demos)."""
        return cls(seed=keccak(b"seed", name.encode()))
