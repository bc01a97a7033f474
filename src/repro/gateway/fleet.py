"""The gateway fleet: the name a replicated gateway was served under.

A lone gateway is a fleet of one, so there is one serving class:
:class:`~repro.gateway.gateway.Gateway` with ``replicas=N`` pins each
client to one of N queue sets behind one flush clock, one shared
mempool-headroom meter, one admission log and one subscription hub.
``GatewayFleet`` names that same class for the stable API surface and
for tools that address it by this module path.
"""

from repro.gateway.gateway import Gateway

GatewayFleet = Gateway
