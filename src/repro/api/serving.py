"""Facade section: the serving tier.

Everything needed to stand up a serving deployment and talk to it —
the :class:`Node` runtime, the :class:`Gateway` admission tier (one
class for any replica count; :class:`GatewayFleet` is another name for
it) with its :class:`PriorityClass` model, the :class:`Client` SDK
(which talks to the gateway itself or through the deterministic
:class:`SimNetTransport`), the request/move futures, and the push-path
:class:`Subscription`.

Import from :mod:`repro.api`; this module only groups the re-exports.
"""

from __future__ import annotations

from repro.gateway import (
    Client,
    Gateway,
    GatewayFleet,
    GatewayLimits,
    MoveHandle,
    PriorityClass,
    RequestHandle,
    SimNetTransport,
    Subscription,
)
from repro.node import Node

__all__ = [
    "Node",
    "Gateway",
    "GatewayFleet",
    "GatewayLimits",
    "PriorityClass",
    "Client",
    "SimNetTransport",
    "RequestHandle",
    "MoveHandle",
    "Subscription",
]
