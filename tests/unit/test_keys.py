"""Unit tests for address derivation rules (paper Section III-G)."""

import copy
import pickle

import pytest

from repro.crypto.hashing import keccak
from repro.crypto.keys import (
    Address,
    KeyPair,
    contract_address,
    create2_address,
    derive_address,
)


def test_address_requires_20_bytes():
    with pytest.raises(ValueError):
        Address(b"\x01" * 19)
    Address(b"\x01" * 20)  # no raise


def test_address_hex_roundtrip():
    addr = Address(bytes(range(20)))
    assert Address.from_hex(addr.hex) == addr
    assert addr.hex.startswith("0x")


RAWS = [bytes([b]) * 20 for b in (0, 1, 7, 255)] + [bytes(range(20))]


def test_address_hashes_as_the_one_field_tuple():
    # The value a frozen one-field dataclass hashed to: set iteration
    # order and every replay digest built over address sets depend on it.
    for raw in RAWS:
        assert hash(Address(raw)) == hash((raw,))


def test_addresses_order_by_their_bytes():
    addresses = [Address(raw) for raw in RAWS]
    assert sorted(addresses) == [Address(raw) for raw in sorted(RAWS)]
    low, high = Address(b"\x01" * 20), Address(b"\x02" * 20)
    assert low < high and high > low and low <= low and not high < low


def test_address_is_immutable():
    addr = Address(b"\x01" * 20)
    with pytest.raises(AttributeError):
        addr.raw = b"\x02" * 20
    with pytest.raises(AttributeError):
        addr.extra = 1
    assert addr.raw == b"\x01" * 20


def test_address_survives_copy_and_pickle():
    addr = Address(bytes(range(20)))
    for clone in (copy.copy(addr), copy.deepcopy(addr), pickle.loads(pickle.dumps(addr))):
        assert type(clone) is Address and clone == addr and clone.raw == addr.raw
    nested = copy.deepcopy({addr: [addr]})
    assert nested == {addr: [addr]}


def test_address_equals_its_tuple_but_not_its_bytes_or_hex():
    raw = bytes(range(20))
    addr = Address(raw)
    assert addr == (raw,)  # the documented consequence of the record layout
    assert addr != raw and raw != addr
    assert addr != addr.hex and addr != raw.hex()
    assert Address(raw) == Address(bytes(range(20))) != Address(b"\x00" * 20)


def test_keypair_is_deterministic_from_name():
    a1 = KeyPair.from_name("alice")
    a2 = KeyPair.from_name("alice")
    assert a1.address == a2.address
    assert a1.public_key == a2.public_key


def test_same_key_same_address_across_chains():
    # Section III-G: the same key pair controls the same address on
    # every chain, because derivation does not involve the chain id.
    kp = KeyPair.from_name("bob")
    assert derive_address(kp.public_key) == kp.address


def test_contract_address_incorporates_chain_id():
    creator = KeyPair.from_name("alice").address
    a_on_1 = contract_address(1, creator, 0)
    a_on_2 = contract_address(2, creator, 0)
    assert a_on_1 != a_on_2


def test_contract_address_varies_with_nonce():
    creator = KeyPair.from_name("alice").address
    assert contract_address(1, creator, 0) != contract_address(1, creator, 1)


def test_create2_is_deterministic_and_salt_sensitive():
    parent = KeyPair.from_name("token").address
    code_hash = keccak(b"account-code")
    a = create2_address(1, parent, 7, code_hash)
    b = create2_address(1, parent, 7, code_hash)
    c = create2_address(1, parent, 8, code_hash)
    assert a == b
    assert a != c


def test_create2_differs_across_chains_and_code():
    parent = KeyPair.from_name("token").address
    code_hash = keccak(b"account-code")
    assert create2_address(1, parent, 7, code_hash) != create2_address(2, parent, 7, code_hash)
    assert create2_address(1, parent, 7, code_hash) != create2_address(
        1, parent, 7, keccak(b"other-code")
    )
