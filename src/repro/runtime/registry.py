"""Contract code registry.

A contract's "code" is the source text of its Python class — a
deterministic byte string standing in for compiled EVM bytecode.  Its
keccak digest is the ``code_hash`` committed in the contract's account
leaf; Move2 recomputes the digest from the code carried in the proof
bundle, so a tampered class cannot impersonate the original.

The registry maps ``code_hash -> class`` so any chain (the execution
analogue of "same virtual machine", assumption (b) of Section III-A)
can instantiate and run contracts recreated by a Move2.
"""

from __future__ import annotations

import inspect
from typing import Dict, Type

from repro.crypto.hashing import keccak_code
from repro.errors import CodeNotFound

_REGISTRY: Dict[bytes, Type] = {}


def _source_bytes(cls: Type) -> bytes:
    try:
        return inspect.getsource(cls).encode()
    except (OSError, TypeError):
        # Dynamically created classes (REPL, exec): fall back to a
        # stable identity string.  Still deterministic per definition.
        return f"{cls.__module__}.{cls.__qualname__}".encode()


def _build_dispatch(cls: Type) -> Dict[str, tuple]:
    """Specialize external-method dispatch at registration time.

    ``Runtime.call`` otherwise pays a ``getattr`` plus three decorator
    flag probes per call; the table precomputes
    ``method -> (fn, is_view, is_payable)`` once.  Rebuilding it on
    every (re-)registration is what invalidates stale entries when a
    contract class is redefined and redeployed.
    """
    table: Dict[str, tuple] = {}
    for name in dir(cls):
        if name.startswith("_"):
            continue
        fn = getattr(cls, name, None)
        if callable(fn) and getattr(fn, "_is_external", False):
            table[name] = (
                fn,
                getattr(fn, "_is_view", False),
                getattr(fn, "_is_payable", False),
            )
    return table


def register_contract(cls: Type) -> Type:
    """Class decorator: compute CODE/CODE_HASH and register the class."""
    code = _source_bytes(cls)
    cls.CODE = code
    cls.CODE_HASH = keccak_code(code)
    cls._RT_DISPATCH = _build_dispatch(cls)
    _REGISTRY[cls.CODE_HASH] = cls
    return cls


def lookup_code(code_hash: bytes) -> Type:
    """Resolve a code hash to its contract class."""
    cls = _REGISTRY.get(code_hash)
    if cls is None:
        raise CodeNotFound(f"unknown code hash {code_hash.hex()[:16]}…")
    return cls


def code_for(cls: Type) -> bytes:
    """The registered code bytes of a contract class.

    Checks the class's *own* attributes — the ``Contract`` base defines
    empty placeholders, so an unregistered subclass must not silently
    deploy with empty code.
    """
    if "CODE" not in cls.__dict__:
        raise CodeNotFound(f"{cls.__name__} is not @register_contract-ed")
    return cls.CODE
