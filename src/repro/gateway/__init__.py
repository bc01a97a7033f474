"""The serving tier: one gateway class, classed admission, typed sheds.

One audited, instrumented front door in front of a
:class:`~repro.node.Node`: :class:`Gateway` (also exported as
:class:`GatewayFleet`), whose ``replicas=N`` pins each client to one of
N queue sets behind one flush clock and one mempool-headroom meter.
Bounded per-chain classed queues
(:class:`PriorityClass`: moves ahead of views ahead of bulk),
deficit-round-robin fairness across clients, micro-batched mempool
submission, per-client token-bucket rate limiting, shed-or-block
backpressure with machine-readable :class:`~repro.errors.ShedByClass`
rejections attributed to the entry actually dropped, request deadlines
with idempotent retry keys, push subscriptions
(:class:`Subscription` via ``watch_contract`` / ``watch_move``), and
cross-chain moves tracked as :class:`MoveHandle` futures.  A
:class:`Client` talks to the gateway itself (admission at the current
instant) or through :class:`SimNetTransport`, a simulated network hop
with seeded latency, so chaos seeds replay byte-identically.

The stable import surface for applications is :mod:`repro.api`; this
package is its implementation.
"""

from repro.gateway.classes import PriorityClass
from repro.gateway.client import Client
from repro.gateway.fairqueue import ClassedFairQueue, QueueEntry
from repro.gateway.fleet import GatewayFleet
from repro.gateway.gateway import Gateway
from repro.gateway.handles import (
    CONFIRMED,
    FAILED,
    PENDING,
    QUEUED,
    SUBMITTED,
    MoveHandle,
    RequestHandle,
)
from repro.gateway.limits import GatewayLimits, TokenBucket
from repro.gateway.subscription import Subscription, SubscriptionHub
from repro.gateway.transport import SimNetTransport

__all__ = [
    "Client",
    "ClassedFairQueue",
    "Gateway",
    "GatewayFleet",
    "GatewayLimits",
    "PriorityClass",
    "QueueEntry",
    "Subscription",
    "SubscriptionHub",
    "TokenBucket",
    "RequestHandle",
    "MoveHandle",
    "SimNetTransport",
    "PENDING",
    "QUEUED",
    "SUBMITTED",
    "CONFIRMED",
    "FAILED",
]
