"""Transactions and their canonical signed encoding.

Seven payload kinds cover everything the paper's evaluation exercises:

* :class:`TransferPayload` — native currency between accounts;
* :class:`DeployPayload` — create a contract (CREATE or CREATE2);
* :class:`CallPayload` — invoke an external contract method;
* :class:`DeployBytecodePayload` / :class:`BytecodeCallPayload` — the
  same two for raw VM bytecode;
* :class:`Move1Payload` — the Move protocol's first step: run the
  contract's ``moveTo`` guard, then assign ``L_c`` (OP_MOVE);
* :class:`Move2Payload` — the second step: recreate the contract from a
  Merkle proof bundle on the target chain.

:func:`named_contract` is the one rule for which contract a
transaction names.

Every transaction is signed by the submitting client over a canonical
byte encoding of its payload (paper Section II: "each transaction
cryptographically signed by the client").  The encoding is injective —
two different signed values never share bytes, so one signature
authorises exactly one transaction — and it is computed once, when the
transaction is built (see docs/PROTOCOL.md, "Transactions").
"""

from __future__ import annotations

import itertools
from collections import _tuplegetter  # namedtuple's field accessor, in C
from dataclasses import dataclass
from typing import Any, Optional, Tuple, Union

from repro.crypto.hashing import keccak
from repro.crypto.keys import Address, KeyPair, derive_address
from repro.crypto.signature import SimulatedSigner

_SIGNER = SimulatedSigner()
_tx_counter = itertools.count()


def canonical_encode(value: Any) -> bytes:
    """Injective, deterministic byte encoding of payload values (for
    signing).

    One length-prefixed, type-tagged grammar, dispatched on the value's
    exact type::

        Address  a<20 bytes>          bool     b0 | b1
        int      i<decimal>;          None     n
        str      s<len>:<utf-8>       float    f<len>:<repr>
        bytes    y<len>:<bytes>
        tuple, list   l<count>:<item>...
        dict          d<count>:<key><value>...   (keys in sorted order)
        object with signing_fields()   o<encoding of signing_fields()>

    ``<len>`` counts bytes, ``<count>`` items, both in decimal.  Every
    encoding announces its own end, so a concatenation of encodings
    parses one way only, and two values share an encoding only if they
    are equal (tuples and lists are one kind).  Any other type — a
    subclass of a listed one included — raises :class:`TypeError`.
    """
    out: list = []
    _encode_into((value,), out)
    return b"".join(out)


def _encode_into(values: Any, out: list) -> None:
    """Append the encodings of ``values``, in order.

    Scalars are encoded in this loop; a container opens here and its
    items come from one recursive call, so a call per nesting level —
    not per value — is what a payload costs.  The kinds signed payloads
    are made of are tested first: a transfer's fields are a str, an
    Address and an int.
    """
    for value in values:
        kind = type(value)
        if kind is str:
            data = value.encode()
            out.append(b"s%d:%s" % (len(data), data))
        elif kind is Address:
            out.append(b"a" + value[0])
        elif kind is int:
            out.append(b"i%d;" % value)
        elif kind is tuple or kind is list:
            out.append(b"l%d:" % len(value))
            _encode_into(value, out)
        elif kind is bytes:
            out.append(b"y%d:%s" % (len(value), value))
        elif kind is bool:
            out.append(b"b1" if value else b"b0")
        elif value is None:
            out.append(b"n")
        elif kind is float:
            data = repr(value).encode()
            out.append(b"f%d:%s" % (len(data), data))
        elif kind is dict:
            out.append(b"d%d:" % len(value))
            for key in sorted(value):
                _encode_into((key, value[key]), out)
        elif hasattr(value, "signing_fields"):
            out.append(b"o")
            _encode_into((value.signing_fields(),), out)
        else:
            raise TypeError(f"cannot canonically encode {kind.__name__}")


class TransferPayload(tuple):
    """Native currency between accounts: an immutable record.

    A 2-tuple underneath, like :class:`Transaction` and
    :class:`~repro.crypto.keys.Address`: built by one ``tuple.__new__``,
    with no per-field attribute writes.
    One consequence of the layout: **a payload equals the plain tuple
    of its fields** (``TransferPayload(to, 5) == (to, 5)``) and hashes
    like it — the value the frozen dataclass it replaces hashed to.  It
    never equals a payload of another kind.
    """

    __slots__ = ()

    to = _tuplegetter(0, "The credited account.")
    amount = _tuplegetter(1, "Native currency moved (a non-negative int).")

    def __new__(cls, to: Address, amount: int) -> "TransferPayload":
        return tuple.__new__(cls, (to, amount))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return f"TransferPayload(to={self[0]!r}, amount={self[1]!r})"

    def signing_fields(self) -> Tuple[Any, ...]:
        """The tuple canonically encoded and signed."""
        return ("transfer", self[0], self[1])


@dataclass(frozen=True)
class DeployPayload:
    code_hash: bytes
    args: Tuple[Any, ...] = ()
    value: int = 0
    salt: Optional[int] = None

    def signing_fields(self) -> Tuple[Any, ...]:
        """The tuple canonically encoded and signed."""
        return ("deploy", self.code_hash, self.args, self.value, self.salt)


class CallPayload(tuple):
    """Invoke an external contract method: an immutable record, a
    4-tuple underneath (equal to the plain tuple of its fields, like
    :class:`TransferPayload`)."""

    __slots__ = ()

    target = _tuplegetter(0, "The called contract.")
    method = _tuplegetter(1, "The external method's name.")
    args = _tuplegetter(2, "Positional arguments (a tuple).")
    value = _tuplegetter(3, "Native currency sent with the call.")

    def __new__(
        cls, target: Address, method: str, args: Tuple[Any, ...] = (), value: int = 0
    ) -> "CallPayload":
        return tuple.__new__(cls, (target, method, args, value))

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return (
            f"CallPayload(target={self[0]!r}, method={self[1]!r}, "
            f"args={self[2]!r}, value={self[3]!r})"
        )

    def signing_fields(self) -> Tuple[Any, ...]:
        """The tuple canonically encoded and signed."""
        return ("call", *self)


@dataclass(frozen=True)
class DeployBytecodePayload:
    """Deploy raw VM bytecode (run by :mod:`repro.runtime.runtime`)."""

    code: bytes
    value: int = 0
    salt: Optional[int] = None

    def signing_fields(self) -> Tuple[Any, ...]:
        """The tuple canonically encoded and signed."""
        return ("deploy-bytecode", self.code, self.value, self.salt)


@dataclass(frozen=True)
class BytecodeCallPayload:
    """Invoke a deployed bytecode contract with raw calldata."""

    target: Address
    calldata: bytes = b""
    value: int = 0

    def signing_fields(self) -> Tuple[Any, ...]:
        """The tuple canonically encoded and signed."""
        return ("bytecode-call", self.target, self.calldata, self.value)


@dataclass(frozen=True)
class Move1Payload:
    contract: Address
    target_chain: int

    def signing_fields(self) -> Tuple[Any, ...]:
        """The tuple canonically encoded and signed."""
        return ("move1", self.contract, self.target_chain)


@dataclass(frozen=True)
class Move2Payload:
    """Carries the full proof bundle; see :mod:`repro.core.proofs`."""

    bundle: Any  # ContractStateProof (kept loosely typed to avoid cycles)

    def signing_fields(self) -> Tuple[Any, ...]:
        """The tuple canonically encoded and signed."""
        return ("move2", self.bundle.signing_fields())


Payload = Union[
    TransferPayload,
    DeployPayload,
    CallPayload,
    DeployBytecodePayload,
    BytecodeCallPayload,
    Move1Payload,
    Move2Payload,
]


def named_contract(payload: Payload, receipt=None) -> Optional[Address]:
    """The contract a transaction names, or None.

    A call names its ``target``, a Move1 its ``contract`` and a Move2
    its bundle's ``contract``.  A deploy names the address it created,
    which only its successful ``receipt`` carries.  A transfer, a failed
    deploy and a deploy without its receipt name none, and neither does
    a field that is not an :class:`Address`: a signed payload can carry
    anything there, and its block still commits.  Load signals, push
    subscriptions and the gateway's read-only-replica check all read
    placement through this one rule, so every client watching the same
    blocks attributes each transaction to the same contract.
    """
    kind = type(payload)
    if kind is CallPayload or kind is BytecodeCallPayload:
        named = payload.target
    elif kind is Move1Payload:
        named = payload.contract
    elif kind is Move2Payload:
        named = getattr(payload.bundle, "contract", None)
    elif (
        (kind is DeployPayload or kind is DeployBytecodePayload)
        and receipt is not None
        and receipt.success
    ):
        named = receipt.return_value
    else:
        return None
    return named if type(named) is Address else None


def _signing_encoding(sender: Address, public_key: bytes, nonce: int, payload) -> bytes:
    """What a transaction's signature covers:
    ``canonical_encode((sender, public_key, nonce, payload.signing_fields()))``,
    built in one pass.

    The head's kinds are fixed, so one format spells the 4-list's
    prefix and its first three items; the payload's fields go through
    the grammar.  A head field of any other type is refused
    (:class:`TypeError`) — nothing else could be signed, indexed by a
    mempool or committed.
    """
    if type(sender) is not Address or type(public_key) is not bytes or type(nonce) is not int:
        _refuse_head(sender, public_key, nonce)
    out = [b"l4:a%sy%d:%si%d;" % (sender[0], len(public_key), public_key, nonce)]
    _encode_into((payload.signing_fields(),), out)
    return b"".join(out)


def _refuse_head(sender, public_key, nonce) -> None:
    for name, value, kind in (
        ("sender", sender, Address), ("public_key", public_key, bytes), ("nonce", nonce, int)
    ):
        if type(value) is not kind:
            raise TypeError(
                f"transaction {name} must be exactly {kind.__name__}, "
                f"got {type(value).__name__}"
            )


class Transaction(tuple):
    """A signed client transaction: an immutable record.

    Built by :func:`sign_transaction` (or directly, unsigned or with a
    signature from elsewhere — the fields are encoded either way).  The
    canonical encoding of ``(sender, public_key, nonce, payload)`` is
    computed once, when the record is built, and kept: it is what the
    signature covers and, with the signature, what ``tx_id`` hashes.
    Assigning any field raises :class:`AttributeError`, so the stored
    bytes always describe the fields beside them — a changed field is a
    new ``Transaction`` with its own encoding and its own ``tx_id``.

    ``meta`` is the one mutable part: a dict of local bookkeeping for
    experiments and tracing (set by harnesses, never signed).

    A tuple underneath: a record is one tracked object and holds no
    cache, however often it is read or verified.
    """

    __slots__ = ()

    sender = _tuplegetter(0, "The signing account.")
    public_key = _tuplegetter(1, "The key ``sender`` derives from.")
    payload = _tuplegetter(2, "What the transaction does (one of the payload kinds).")
    nonce = _tuplegetter(3, "Makes otherwise-identical transactions distinct.")
    signature = _tuplegetter(4, "The client signature over :meth:`signing_bytes`.")
    tx_id = _tuplegetter(5, "``keccak(signing bytes ‖ signature)`` in hex.")
    meta = _tuplegetter(6, "Unsigned local bookkeeping (mutable dict).")

    def __new__(
        cls,
        sender: Address,
        public_key: bytes,
        payload: Payload,
        nonce: int,
        signature: bytes = b"",
    ) -> "Transaction":
        signing = _signing_encoding(sender, public_key, nonce, payload)
        return _record(sender, public_key, payload, nonce, signature, signing)

    def __repr__(self) -> str:
        return (
            f"Transaction(sender={self.sender!r}, public_key={self.public_key!r}, "
            f"payload={self.payload!r}, nonce={self.nonce!r}, "
            f"signature={self.signature!r}, tx_id={self.tx_id!r}, meta={self.meta!r})"
        )

    def signing_bytes(self) -> bytes:
        """The exact bytes the client signature covers (stored at
        construction, never re-encoded)."""
        return self[7]

    def verify(self) -> bool:
        """Check the signature and that the key matches the sender.

        Computed afresh on every call — no verdict is kept; the executor
        calls it once per transaction.
        """
        public_key = self.public_key
        return derive_address(public_key) == self.sender and _SIGNER.verify(
            public_key, self[7], self.signature
        )


def _record(sender, public_key, payload, nonce, signature, signing) -> Transaction:
    """The one place a record's layout is spelled out."""
    return tuple.__new__(
        Transaction,
        (
            sender, public_key, payload, nonce, signature,
            keccak(signing, signature).hex(), {}, signing,
        ),
    )


def sign_transaction(
    keypair: KeyPair,
    payload: Payload,
    nonce: Optional[int] = None,
) -> Transaction:
    """Build and sign a transaction from ``keypair``.

    The fields are encoded once; those bytes are signed and stored in
    the record.  ``nonce`` defaults to a process-unique counter — enough
    to make otherwise-identical transactions distinct; chains do not
    enforce strict EOA nonce ordering in this reproduction (the replay
    guard that matters to the Move protocol is the *contract* move
    nonce).
    """
    sender, public_key = keypair.address, keypair.public_key
    if nonce is None:
        nonce = next(_tx_counter)
    signing = _signing_encoding(sender, public_key, nonce, payload)
    signature = _SIGNER.sign(keypair.seed, signing)
    return _record(sender, public_key, payload, nonce, signature, signing)
