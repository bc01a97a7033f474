"""Unit tests for the simulated signer."""

import pytest

from repro.crypto.hashing import keccak
from repro.crypto.signature import SimulatedSigner


@pytest.fixture(params=[SimulatedSigner], ids=["simulated"])
def signer(request):
    return request.param()


SEED = keccak(b"test-seed")
OTHER_SEED = keccak(b"other-seed")


def test_sign_verify_roundtrip(signer):
    public = signer.public_key(SEED)
    sig = signer.sign(SEED, b"hello")
    assert signer.verify(public, b"hello", sig)


def test_wrong_message_rejected(signer):
    public = signer.public_key(SEED)
    sig = signer.sign(SEED, b"hello")
    assert not signer.verify(public, b"goodbye", sig)


def test_wrong_key_rejected(signer):
    sig = signer.sign(SEED, b"hello")
    other_public = signer.public_key(OTHER_SEED)
    assert not signer.verify(other_public, b"hello", sig)


def test_tampered_signature_rejected(signer):
    public = signer.public_key(SEED)
    sig = bytearray(signer.sign(SEED, b"hello"))
    sig[0] ^= 0x01
    assert not signer.verify(public, b"hello", bytes(sig))


def test_public_key_deterministic(signer):
    assert signer.public_key(SEED) == signer.public_key(SEED)
