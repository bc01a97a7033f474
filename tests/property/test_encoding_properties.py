"""Property-based tests for the canonical encodings.

Signing safety hinges on injectivity: two different payloads must never
share a canonical encoding (a collision would let one signed intent be
replayed as another).  Storage-slot encode/decode must round-trip.
"""

import itertools

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.chain.tx import (
    BytecodeCallPayload,
    CallPayload,
    DeployBytecodePayload,
    DeployPayload,
    Move1Payload,
    Move2Payload,
    Transaction,
    TransferPayload,
    canonical_encode,
    sign_transaction,
)
from repro.core.proofs import ContractStateProof
from repro.crypto.keys import Address, KeyPair
from repro.merkle.proof import MembershipProof
from repro.runtime.contract import decode_value, encode_key, encode_value

addresses = st.binary(min_size=20, max_size=20).map(Address)

#: the encoder's own tag characters: strings and bytes spelled with them
#: are where a grammar without lengths lets two values run together
TAGS = "asyl()ind"
tagged_text = st.text(alphabet=TAGS, max_size=12)
tagged_bytes = tagged_text.map(str.encode)

scalars = st.one_of(
    st.integers(min_value=-(10**30), max_value=10**30),
    tagged_text,
    tagged_bytes,
    st.text(max_size=12),
    st.binary(max_size=12),
    st.booleans(),
    st.none(),
    addresses,
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(tagged_text, st.text(max_size=6)), children, max_size=3),
    ),
    max_leaves=12,
)

short_tagged = st.text(alphabet=TAGS, max_size=3)
tagged_sequences = st.lists(
    st.one_of(short_tagged, short_tagged.map(str.encode)), max_size=3
).map(tuple)


def normalize(value):
    """Encoding-equivalence classes: tuples and lists encode alike."""
    if isinstance(value, Address):  # a 1-tuple record, encoded as its own kind
        return (Address, value.raw)
    if isinstance(value, (tuple, list)):
        return tuple(normalize(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, normalize(v)) for k, v in value.items()))
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, int):
        return ("int", value)
    return value


@given(values, values)
@settings(max_examples=200, deadline=None)
def test_canonical_encode_is_injective(a, b):
    assume(normalize(a) != normalize(b))
    assert canonical_encode(a) != canonical_encode(b)


@given(st.lists(tagged_sequences, min_size=2, max_size=60, unique=True))
@settings(max_examples=200, deadline=None)
def test_tagged_sequences_never_run_together(batch):
    # A birthday search: many short sequences of tag-spelled strings and
    # bytes at once, so a split/merge pair such as ("as", "sb") and
    # ("a", "s", "b") is likely to be drawn side by side.
    assert len({canonical_encode(seq) for seq in batch}) == len(batch)


def test_small_tagged_domain_is_exhaustively_injective():
    # Every sequence of up to three items over a few tag-spelled
    # strings and bytes: a bounded check that needs no luck.
    atoms = ["", "a", "s", "as", b"", b"a", b"y", b"ay"]
    domain = [
        seq for size in range(4) for seq in itertools.product(atoms, repeat=size)
    ]
    assert len({canonical_encode(seq) for seq in domain}) == len(domain)


@given(values)
@settings(max_examples=100, deadline=None)
def test_canonical_encode_is_deterministic(value):
    assert canonical_encode(value) == canonical_encode(value)


@given(st.integers(min_value=0, max_value=2**256 - 1))
@settings(max_examples=80, deadline=None)
def test_int_slot_roundtrip(value):
    assert decode_value(encode_value(value), int) == value


@given(st.booleans())
def test_bool_slot_roundtrip(value):
    assert decode_value(encode_value(value), bool) == value


@given(st.binary(max_size=64))
@settings(max_examples=60, deadline=None)
def test_bytes_slot_roundtrip(value):
    assert decode_value(encode_value(value), bytes) == value


@given(addresses)
@settings(max_examples=60, deadline=None)
def test_address_slot_roundtrip(value):
    assert decode_value(encode_value(value), Address) == value


@given(
    st.one_of(st.integers(0, 2**64), st.binary(max_size=16), st.text(max_size=8), addresses),
    st.one_of(st.integers(0, 2**64), st.binary(max_size=16), st.text(max_size=8), addresses),
)
@settings(max_examples=120, deadline=None)
def test_map_keys_unique_per_value(a, b):
    def norm(v):
        # str and equal-bytes encode identically (documented overlap is
        # acceptable within one declared key type; across types we only
        # require determinism). Compare on the encoded domain.
        return encode_key(v)

    if a != b and norm(a) == norm(b):
        # overlapping encodings must come from the documented text/bytes
        # overlap, never from two ints or two addresses
        assert not (isinstance(a, int) and isinstance(b, int))
        assert not (isinstance(a, Address) and isinstance(b, Address))


# ----------------------------------------------------------------------
# A transaction's one-pass signing bytes are the grammar's encoding
# ----------------------------------------------------------------------

field_values = st.one_of(values, st.floats(allow_nan=False))
amounts = st.integers(min_value=-(2**80), max_value=2**80)
digests = st.binary(min_size=32, max_size=32)
payload_args = st.lists(field_values, max_size=4).map(tuple)
membership_proofs = st.builds(
    MembershipProof,
    key=st.binary(max_size=20),
    value=st.binary(max_size=40),
    leaf_prefix=st.binary(max_size=2),
    steps=st.lists(
        st.tuples(st.binary(max_size=33), st.binary(max_size=33)), max_size=3
    ).map(tuple),
)
bundles = st.builds(
    ContractStateProof,
    source_chain=amounts,
    contract=addresses,
    code=st.binary(max_size=40),
    storage=st.dictionaries(st.binary(max_size=8), st.binary(max_size=8), max_size=3),
    account_proof=membership_proofs,
    proof_height=amounts,
)
#: every payload kind, with arbitrary values in its fields (the ones a
#: type hint names, and anything else the grammar encodes)
payloads = st.one_of(
    st.builds(TransferPayload, to=st.one_of(addresses, field_values), amount=field_values),
    st.builds(
        DeployPayload,
        code_hash=digests,
        args=payload_args,
        value=amounts,
        salt=st.one_of(st.none(), amounts),
    ),
    st.builds(
        CallPayload,
        target=addresses,
        method=st.text(max_size=10),
        args=payload_args,
        value=field_values,
    ),
    st.builds(
        DeployBytecodePayload,
        code=st.binary(max_size=40),
        value=amounts,
        salt=st.one_of(st.none(), amounts),
    ),
    st.builds(
        BytecodeCallPayload, target=addresses, calldata=st.binary(max_size=40), value=amounts
    ),
    st.builds(Move1Payload, contract=addresses, target_chain=amounts),
    st.builds(Move2Payload, bundle=bundles),
)
nonces = st.integers(min_value=-(2**80), max_value=2**80)


@given(addresses, st.binary(max_size=40), nonces, payloads)
@settings(max_examples=300, deadline=None)
def test_one_pass_signing_bytes_are_the_canonical_encoding(sender, public_key, nonce, payload):
    expected = canonical_encode((sender, public_key, nonce, payload.signing_fields()))
    assert Transaction(sender, public_key, payload, nonce).signing_bytes() == expected


@given(st.sampled_from(["alice", "bob", "carol"]), nonces, payloads)
@settings(max_examples=150, deadline=None)
def test_signed_bytes_are_the_canonical_encoding(name, nonce, payload):
    keypair = KeyPair.from_name(name)
    tx = sign_transaction(keypair, payload, nonce=nonce)
    assert tx.signing_bytes() == canonical_encode(
        (keypair.address, keypair.public_key, nonce, payload.signing_fields())
    )
    assert tx.verify()
