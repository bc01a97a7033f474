"""The simulated network hop between a client and the gateway.

A :class:`~repro.gateway.client.Client` talks either to the
:class:`~repro.gateway.gateway.Gateway` itself (the request is admitted
at the current simulated instant, a client co-located with the node)
or to a :class:`SimNetTransport` in front of it: the request takes a
deterministic simulated-network hop first, base latency plus jitter
drawn from the *simulator's* seeded RNG, so a chaos seed replays the
exact same admission order byte-identically.

The transport answers the gateway's client-facing methods with the
same signatures, and returns the request's future immediately — on a
discrete-event clock there is nothing to block on; the gateway resolves
the handle as events fire.  Whatever its replica count, the gateway
routes each client to its pinned replica itself.
"""

from __future__ import annotations

from math import inf
from typing import Optional, Sequence

from repro.chain.tx import Transaction
from repro.crypto.keys import Address, KeyPair
from repro.errors import ConfigError
from repro.gateway.gateway import Gateway, PriorityLike
from repro.gateway.handles import MoveHandle, RequestHandle
from repro.gateway.subscription import Subscription
from repro.ibc.bridge import CompletionFactory


class SimNetTransport:
    """A deterministic simulated network hop in front of the gateway.

    Per-request delay = ``latency + U(0, jitter)`` with the uniform
    draw taken from the node simulator's seeded RNG — reproducible
    run-to-run, and reproducible under chaos seeds.
    """

    def __init__(self, gateway: Gateway, latency: float = 0.05, jitter: float = 0.0):
        if not (0 <= latency < inf and 0 <= jitter < inf):
            raise ConfigError(
                "transport latency/jitter must be finite and >= 0, "
                f"got {latency}/{jitter}"
            )
        self.gateway = gateway
        #: the node behind the gateway (what a client reads and drives)
        self.node = gateway.node
        self.latency = latency
        self.jitter = jitter

    def _delay(self) -> float:
        sim = self.node.sim
        return self.latency + (sim.rng.uniform(0.0, self.jitter) if self.jitter else 0.0)

    def submit(
        self,
        tx: Transaction,
        chain_id: int,
        client_id: str = "",
        idempotency_key: Optional[str] = None,
        priority: Optional[PriorityLike] = None,
    ) -> RequestHandle:
        """Submit after a seeded network delay; the future exists now."""
        gateway, node = self.gateway, self.node
        handle = RequestHandle(chain_id, client_id, idempotency_key)
        handle._node = node
        # The event carries submit's arguments in its positional order.
        node.sim.schedule(
            self._delay(),
            gateway.submit, tx, chain_id, client_id, idempotency_key, handle, priority,
        )
        return handle

    def move(
        self,
        mover: KeyPair,
        contract: Address,
        source_chain: int,
        target_chain: int,
        completions: Sequence[CompletionFactory] = (),
        client_id: str = "",
        idempotency_key: Optional[str] = None,
    ) -> MoveHandle:
        """Start a move after a seeded network delay; the future exists now."""
        # The move's own future must exist before the hop completes, so
        # the gateway-made handle is bridged through a proxy that starts
        # mirroring once the request arrives.
        from repro.ibc.bridge import MovePhases

        proxy = MoveHandle(
            MovePhases(
                contract=contract,
                source_chain=source_chain,
                target_chain=target_chain,
                started_at=self.node.now,
            ),
            idempotency_key=idempotency_key,
        )
        proxy._node = self.node

        def deliver() -> None:
            real = self.gateway.move(
                mover,
                contract,
                source_chain,
                target_chain,
                completions=completions,
                client_id=client_id,
                idempotency_key=idempotency_key,
            )
            proxy.phases = real.phases

            def forward(stage: str) -> None:
                # Mirror intermediate stage transitions onto the proxy
                # (the replayed "move1" it already holds and the
                # terminal stage, which copy() below settles, excluded)
                # so watch_move on the client-side handle streams too.
                if stage in ("done", "failed") or stage == proxy.stage:
                    return
                proxy._advance(stage)

            real.on_stage(forward)

            def copy(done_handle: MoveHandle) -> None:
                proxy.phases = done_handle.phases
                proxy.stage = done_handle.stage
                proxy.error = done_handle.error
                proxy._settle()

            real.on_done(copy)

        self.node.sim.schedule(self._delay(), deliver)
        return proxy

    def watch_contract(
        self, chain_id: int, target: Address, client_id: str = ""
    ) -> Subscription:
        """Subscribe to a contract's committed events.  Registration is
        immediate (a control-plane operation like ``health``): events
        are pushed from block commits either way, so the hop would only
        risk missing the first block after the call."""
        return self.gateway.watch_contract(chain_id, target, client_id)

    def watch_move(self, handle: MoveHandle, client_id: str = "") -> Subscription:
        """Subscribe to a move's stage stream (immediate registration;
        the handle replays stages already traversed)."""
        return self.gateway.watch_move(handle, client_id)

    def health(self) -> dict:
        """The gateway's serving/degraded status.  Served immediately
        (health checks are reads against the current instant; the
        network hop would only report an older now)."""
        return self.gateway.health()
