"""Push subscriptions: watch a contract or a move instead of polling.

Without subscriptions, a client tracking a contract polls ``view`` and
a client tracking a move polls ``handle.stage`` — every poll a request
through admission.  The subscription path inverts the flow: the
gateway already subscribes to each chain's block stream (it needs the
commits for handle resolution), so watching is one admission-time
registration and zero per-event requests afterwards.  A gateway has
one hub whatever its replica count, so ``gateway_subscriptions_active``
counts every live subscription.

* :meth:`SubscriptionHub.watch_contract` — pushes one event per
  committed transaction that names the watched address
  (:func:`~repro.chain.tx.named_contract`): ``call`` /
  ``bytecode_call`` outcomes, ``deploy`` when a class or raw bytecode
  deploy creates it, plus the Move lifecycle as seen from each chain
  (``move1`` when the contract locks and departs, ``move2`` when it
  materializes);
* :meth:`SubscriptionHub.watch_move` — pushes the served move's
  handle-state transitions (``move1 → confirm → proof → move2 →
  complete``) the instant the gateway advances them, then a terminal
  ``done`` / ``failed``.

Events are plain dicts (wire-shaped, deterministic field order) and
delivery happens at the block-commit / stage-advance instant on the
simulated clock — byte-identical under replay like every other
admission decision.  Subscriptions are ``VIEW``-class work: creating
one passes through the same per-client rate limiter as a submission.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.chain.tx import (
    BytecodeCallPayload,
    CallPayload,
    Move1Payload,
    Move2Payload,
    named_contract,
)
from repro.crypto.keys import Address

#: subscription kinds
CONTRACT = "contract"
MOVE = "move"


class Subscription:
    """One client's registration on the gateway's push stream.

    Events accumulate in :attr:`events` (ordered, deterministic) and
    fan out to any callback registered with :meth:`on_event`;
    :meth:`cancel` detaches from the hub — no events after it returns.
    """

    def __init__(self, kind: str, target: str, chain_id: Optional[int], client_id: str):
        self.kind = kind
        self.target = target
        self.chain_id = chain_id
        self.client_id = client_id
        self.events: List[Dict[str, Any]] = []
        self.active = True
        self._callbacks: List[Callable[[Dict[str, Any]], None]] = []
        self._detach: Optional[Callable[["Subscription"], None]] = None

    def on_event(self, callback: Callable[[Dict[str, Any]], None]) -> None:
        """Invoke ``callback(event)`` for every event already received
        and every future one (ordering preserved)."""
        for event in self.events:
            callback(event)
        self._callbacks.append(callback)

    def cancel(self) -> None:
        """Stop receiving events (idempotent)."""
        if not self.active:
            return
        self.active = False
        if self._detach is not None:
            self._detach(self)
            self._detach = None

    # -- hub-internal --------------------------------------------------

    def _push(self, event: Dict[str, Any]) -> None:
        if not self.active:
            return
        self.events.append(event)
        for callback in list(self._callbacks):
            callback(event)


class SubscriptionHub:
    """The gateway-side registry feeding subscriptions from block
    commits and move-handle transitions."""

    def __init__(self, gateway):
        self.gateway = gateway
        #: chain_id -> hex address -> live subscriptions
        self._by_contract: Dict[int, Dict[str, List[Subscription]]] = {}
        #: chains whose block stream we already tap
        self._tapped: Dict[int, Callable] = {}
        metrics = gateway.telemetry.metrics
        self._m_active = metrics.gauge("gateway_subscriptions_active")
        self._m_events = metrics.counter("gateway_subscription_events_total")
        self._active = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def watch_contract(
        self, chain_id: int, target: Address, client_id: str = ""
    ) -> Subscription:
        """Subscribe to every committed transaction touching ``target``
        on ``chain_id`` (the gateway validated chain and rate already)."""
        sub = Subscription(CONTRACT, target.hex, chain_id, client_id)
        per_chain = self._by_contract.setdefault(chain_id, {})
        per_chain.setdefault(target.hex, []).append(sub)
        self._tap(chain_id)
        sub._detach = self._detach_contract
        self._count(+1)
        return sub

    def watch_move(self, handle, client_id: str = "") -> Subscription:
        """Subscribe to a served move's stage transitions."""
        phases = handle.phases
        sub = Subscription(MOVE, phases.contract.hex, None, client_id)
        self._count(+1)

        def on_stage(stage: str) -> None:
            if not sub.active:
                return
            if stage in ("done", "failed"):
                event = {
                    "type": stage,
                    "contract": phases.contract.hex,
                    "ok": bool(handle.ok),
                    "at": self.gateway.node.now,
                }
                if handle.error is not None:
                    event["error"] = handle.error.to_dict()
                elif not phases.success and phases.error:
                    event["error"] = {"code": "move_failed", "message": phases.error}
                self._emit(sub, event)
                sub.active = False
                self._count(-1)
            else:
                self._emit(
                    sub,
                    {
                        "type": "stage",
                        "stage": stage,
                        "contract": phases.contract.hex,
                        "at": self.gateway.node.now,
                    },
                )

        handle.on_stage(on_stage)

        def detach(_sub: Subscription) -> None:
            self._count(-1)

        sub._detach = detach
        return sub

    def _detach_contract(self, sub: Subscription) -> None:
        per_chain = self._by_contract.get(sub.chain_id, {})
        subs = per_chain.get(sub.target, [])
        if sub in subs:
            subs.remove(sub)
        if not subs:
            per_chain.pop(sub.target, None)
        self._count(-1)

    def _count(self, delta: int) -> None:
        self._active += delta
        self._m_active.set(self._active)

    # ------------------------------------------------------------------
    # The push side
    # ------------------------------------------------------------------

    def _tap(self, chain_id: int) -> None:
        if chain_id in self._tapped:
            return
        chain = self.gateway.node.chain(chain_id)

        def on_block(block, receipts) -> None:
            self._on_block(chain_id, block, receipts)

        chain.subscribe(on_block)
        self._tapped[chain_id] = on_block

    def _emit(self, sub: Subscription, event: Dict[str, Any]) -> None:
        self._m_events.inc()
        sub._push(event)

    def _on_block(self, chain_id: int, block, receipts) -> None:
        per_chain = self._by_contract.get(chain_id)
        if not per_chain:
            return
        for tx, receipt in zip(block.transactions, receipts):
            address = named_contract(tx.payload, receipt)
            if address is None:
                continue
            subs = per_chain.get(address.hex)
            if not subs:
                continue
            payload = tx.payload
            kind = type(payload)
            if kind is CallPayload:
                name, extra = "call", {"method": payload.method}
            elif kind is BytecodeCallPayload:
                name, extra = "bytecode_call", {}
            elif kind is Move1Payload:
                name, extra = "move1", {"target_chain": payload.target_chain}
            elif kind is Move2Payload:
                source = getattr(payload.bundle, "source_chain", None)
                name, extra = "move2", {"source_chain": source}
            else:  # a class or raw bytecode deploy
                name, extra = "deploy", {}
            event = {
                "type": name,
                "chain": chain_id,
                "height": block.header.height,
                "tx_id": tx.tx_id,
                "ok": receipt.success,
                "at": block.header.timestamp,
            }
            event.update(extra)
            if not receipt.success and receipt.error:
                event["error"] = receipt.error
            for sub in list(subs):
                self._emit(sub, event)
