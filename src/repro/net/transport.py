"""Message transport between simulated processes.

A :class:`Network` binds a :class:`~repro.net.sim.Simulator` to a
:class:`~repro.net.latency.LatencyModel`.  Processes register an
:class:`Endpoint` (a name, a region and a message handler); sends are
delivered as scheduled events after the sampled one-way latency.

Delivery is reliable and FIFO-per-pair is *not* guaranteed (jitter can
reorder), matching a TCP-per-message/UDP-like abstraction that BFT
protocols must already tolerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.errors import SimulationError
from repro.net.latency import LatencyModel
from repro.net.sim import Simulator

MessageHandler = Callable[[str, Any], None]

#: Fault-injection hook: inspects an outbound message *after* partition
#: filtering and latency sampling, and returns the list of delivery
#: delays to use instead — ``[]`` drops the message, one entry delivers
#: it once (possibly delayed or hastened, which reorders it relative to
#: its peers), several entries duplicate it.  ``None`` leaves the
#: sampled latency untouched.  Installed by
#: :class:`~repro.faults.injector.FaultInjector`.
FaultHook = Callable[[str, str, Any, float], Optional[List[float]]]


@dataclass
class Endpoint:
    """A process attached to the network."""

    name: str
    region: str
    handler: MessageHandler


class Network:
    """Latency-faithful message passing over the simulator."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.latency = LatencyModel()
        self._endpoints: Dict[str, Endpoint] = {}
        self.messages_sent = 0
        self.bytes_sent = 0
        self.messages_dropped = 0
        self.messages_duplicated = 0
        self._partition: Optional[Dict[str, int]] = None
        #: optional fault-injection hook (see :data:`FaultHook`)
        self.fault_hook: Optional[FaultHook] = None

    def attach(self, name: str, region: str, handler: MessageHandler) -> Endpoint:
        """Register a process; ``handler(sender_name, payload)`` receives."""
        if name in self._endpoints:
            raise SimulationError(f"endpoint {name!r} already attached")
        endpoint = Endpoint(name=name, region=region, handler=handler)
        self._endpoints[name] = endpoint
        return endpoint

    def detach(self, name: str) -> None:
        """Remove a process; in-flight messages to it are dropped."""
        self._endpoints.pop(name, None)

    def partition(self, *groups: Iterable[str]) -> None:
        """Split the network: messages between different groups drop.

        Endpoints not named in any group form an implicit extra group.
        Call :meth:`heal` to restore full connectivity.
        """
        mapping: Dict[str, int] = {}
        for index, group in enumerate(groups):
            for name in group:
                mapping[name] = index
        self._partition = mapping

    def heal(self) -> None:
        """End the partition; subsequent sends flow everywhere again."""
        self._partition = None

    def send(self, src: str, dst: str, payload: Any, size_bytes: int = 0) -> None:
        """Send ``payload`` from ``src`` to ``dst`` after sampled latency.

        Messages to endpoints that detach before delivery are silently
        dropped (the real network gives no better guarantee), as are
        messages crossing an active partition.
        """
        source = self._endpoints.get(src)
        if source is None:
            raise SimulationError(f"unknown sender {src!r}")
        destination = self._endpoints.get(dst)
        if destination is None:
            return
        partition = self._partition
        if partition is not None and partition.get(src, -1) != partition.get(dst, -1):
            self.messages_dropped += 1
            return
        delay = self.latency.sample(source.region, destination.region, self.sim.rng)
        delays = (delay,)
        if self.fault_hook is not None:
            hooked = self.fault_hook(src, dst, payload, delay)
            if hooked is not None:
                delays = [max(0.0, d) for d in hooked]
                if not delays:
                    self.messages_dropped += 1
                    return
                self.messages_duplicated += len(delays) - 1
        self.messages_sent += 1
        self.bytes_sent += size_bytes
        for scheduled_delay in delays:
            self.sim.schedule(scheduled_delay, self._deliver, src, dst, payload)

    def _deliver(self, src: str, dst: str, payload: Any) -> None:
        target = self._endpoints.get(dst)
        if target is not None:
            target.handler(src, payload)

    def broadcast(self, src: str, dsts: Iterable[str], payload: Any, size_bytes: int = 0) -> None:
        """Send the same payload to many destinations (independent latencies)."""
        for dst in dsts:
            if dst != src:
                self.send(src, dst, payload, size_bytes)
