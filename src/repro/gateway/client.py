"""The client SDK over a gateway.

A :class:`Client` owns a keypair and a transport (the
:class:`~repro.gateway.gateway.Gateway` itself, or a
:class:`~repro.gateway.transport.SimNetTransport` in front of it), signs
payloads, and exposes the operations applications actually perform —
``transfer`` / ``deploy`` / ``call`` / ``move`` — as futures.  ``wait``
(on the client or directly on a handle) drives the node until a future
resolves, so a script reads like blocking code:

    handle = client.deploy(GuestBook)
    receipt = handle.wait()
    book = receipt.return_value
    done = client.move(book, target_chain=2).wait()

Every submit path takes ``priority=`` to re-tag the request's admission
class (``"move"`` / ``"view"`` / ``"bulk"``), and ``watch_contract`` /
``watch_move`` subscribe to pushed events instead of polling.

Every rejection surfaces as a typed
:class:`~repro.errors.GatewayError` from ``wait``/``result`` — clients
branch on ``error.code`` (``"queue_full"``, ``"rate_limited"``,
``"timeout"``, …), never on message strings.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Tuple, Union

from repro.chain.tx import (
    CallPayload,
    DeployPayload,
    Payload,
    TransferPayload,
    sign_transaction,
)
from repro.crypto.keys import Address, KeyPair
from repro.errors import ConfigError
from repro.gateway.gateway import PriorityLike
from repro.gateway.handles import MoveHandle, RequestHandle
from repro.gateway.subscription import Subscription
from repro.ibc.bridge import CompletionFactory


class Client:
    """One application identity submitting through a gateway.

    ``transport`` is the :class:`~repro.gateway.gateway.Gateway` (the
    request is admitted at the current instant) or a
    :class:`~repro.gateway.transport.SimNetTransport` (a seeded network
    hop first); both answer the same calls and expose the ``node``.

    Configuration is keyword-only past the transport, and every field
    is validated on construction with a :class:`ConfigError` naming the
    offending field — a typo'd identity should fail at assembly, not as
    a cryptic ``AttributeError`` mid-experiment.
    """

    def __init__(
        self,
        transport,
        *,
        keypair: Optional[KeyPair] = None,
        name: Optional[str] = None,
        default_chain: Optional[int] = None,
    ):
        if keypair is not None and not isinstance(keypair, KeyPair):
            raise ConfigError(
                f"keypair must be a KeyPair, got {type(keypair).__name__}"
            )
        if name is not None and not isinstance(name, str):
            raise ConfigError(f"name must be a str, got {type(name).__name__}")
        if default_chain is not None and (
            not isinstance(default_chain, int) or isinstance(default_chain, bool)
        ):
            raise ConfigError(
                f"default_chain must be an int chain id, got {default_chain!r}"
            )
        if keypair is None:
            if name is None:
                raise ConfigError("a Client needs a keypair or a name to derive one")
            keypair = KeyPair.from_name(name)
        self.transport = transport
        self.keypair = keypair
        self.client_id = name if name is not None else keypair.address.hex
        node = transport.node
        if default_chain is None and len(node.chains) == 1:
            default_chain = next(iter(node.chains))
        self.default_chain = default_chain

    @property
    def address(self) -> Address:
        return self.keypair.address

    @property
    def node(self):
        return self.transport.node

    def _chain_id(self, chain: Optional[int]) -> int:
        if chain is not None:
            return chain
        if self.default_chain is None:
            raise ConfigError(
                "no default chain on a multi-chain node — pass chain=<id>"
            )
        return self.default_chain

    # ------------------------------------------------------------------
    # Operations (each returns a future)
    # ------------------------------------------------------------------

    def submit_payload(
        self,
        payload: Payload,
        chain: Optional[int] = None,
        key: Optional[str] = None,
        priority: Optional[PriorityLike] = None,
    ) -> RequestHandle:
        """Sign and submit any payload kind; returns its future.

        ``priority`` re-tags the admission class (a
        :class:`~repro.gateway.classes.PriorityClass` or its label,
        e.g. ``"view"``); omitted, the gateway classifies by payload.
        """
        tx = sign_transaction(self.keypair, payload)
        return self.transport.submit(
            tx,
            self._chain_id(chain),
            client_id=self.client_id,
            idempotency_key=key,
            priority=priority,
        )

    def transfer(
        self,
        to: Address,
        amount: int,
        chain: Optional[int] = None,
        key: Optional[str] = None,
        priority: Optional[PriorityLike] = None,
    ) -> RequestHandle:
        """Native-currency transfer (``BULK`` class unless re-tagged)."""
        return self.submit_payload(
            TransferPayload(to=to, amount=amount), chain, key, priority
        )

    def deploy(
        self,
        contract: Union[type, bytes],
        args: Tuple[Any, ...] = (),
        value: int = 0,
        chain: Optional[int] = None,
        key: Optional[str] = None,
        priority: Optional[PriorityLike] = None,
    ) -> RequestHandle:
        """Deploy a registered contract class (or a raw code hash)."""
        code_hash = contract.CODE_HASH if isinstance(contract, type) else contract
        return self.submit_payload(
            DeployPayload(code_hash=code_hash, args=tuple(args), value=value),
            chain,
            key,
            priority,
        )

    def call(
        self,
        target: Address,
        method: str,
        *args: Any,
        value: int = 0,
        chain: Optional[int] = None,
        key: Optional[str] = None,
        priority: Optional[PriorityLike] = None,
    ) -> RequestHandle:
        """Invoke an external contract method."""
        return self.submit_payload(
            CallPayload(target=target, method=method, args=args, value=value),
            chain,
            key,
            priority,
        )

    def move(
        self,
        contract: Address,
        target_chain: int,
        source_chain: Optional[int] = None,
        completions: Sequence[CompletionFactory] = (),
        key: Optional[str] = None,
    ) -> MoveHandle:
        """Move a contract cross-chain; returns the move's future
        (``MOVE`` class throughout — moves are never re-tagged down)."""
        return self.transport.move(
            self.keypair,
            contract,
            self._chain_id(source_chain),
            target_chain,
            completions=completions,
            client_id=self.client_id,
            idempotency_key=key,
        )

    # ------------------------------------------------------------------
    # Subscriptions (push, not poll)
    # ------------------------------------------------------------------

    def watch_contract(
        self, target: Address, chain: Optional[int] = None
    ) -> Subscription:
        """Subscribe to committed transactions touching ``target`` —
        events push from the gateway's block stream; no polling."""
        return self.transport.watch_contract(
            self._chain_id(chain), target, self.client_id
        )

    def watch_move(self, handle: MoveHandle) -> Subscription:
        """Subscribe to a move's stage stream (stages already traversed
        replay immediately, the rest push as the gateway advances them)."""
        return self.transport.watch_move(handle, self.client_id)

    # ------------------------------------------------------------------
    # Reads and awaiting
    # ------------------------------------------------------------------

    def view(self, target: Address, method: str, *args: Any, chain: Optional[int] = None):
        """Read-only contract query at the chain's current head."""
        return self.node.view(self._chain_id(chain), target, method, *args)

    def balance(self, chain: Optional[int] = None) -> int:
        """This client's native balance."""
        return self.node.chain(self._chain_id(chain)).balance_of(self.address)

    def health(self) -> dict:
        """The serving side's health/degraded-mode status (see
        :meth:`~repro.gateway.gateway.Gateway.health`): is the gateway
        serving, how full its queues are and — when the node hosts a
        health monitor — which targets are unhealthy and which alerts
        are firing."""
        return self.transport.health()

    def wait(self, handle, max_time: Optional[float] = None):
        """Drive the node until ``handle`` resolves, then return its
        result (receipt or :class:`~repro.ibc.bridge.MovePhases`).
        Raises the handle's typed error on rejection, or
        :class:`~repro.errors.RequestTimeout` if ``max_time`` simulated
        seconds pass first.  (``handle.wait(timeout=...)`` is the same
        operation on the handle itself.)"""
        return handle.wait(max_time)
