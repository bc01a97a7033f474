"""The node runtime: the one place a deployment is assembled.

Everything before this package drove chains in lockstep from benchmark
scripts — call ``produce_block`` by hand, advance the simulator, read
receipts.  :class:`Node` turns that into a *servable* runtime: it owns
one or more chains on one simulator, wires their header relays, drives
block production (a deterministic timer driver by default, each chain's
own consensus engine on request), and exposes the narrow
submission/query surface the request gateway (:mod:`repro.gateway`)
builds on.  The shard cluster, the chaos world and the IBC experiment
are nodes too, so fault plans, replication, health and telemetry
thread through every deployment the same way.
"""

from repro.node.node import Node

__all__ = ["Node"]
