"""Admission-control configuration and the per-client token bucket.

Every knob that bounds the gateway's memory or a client's request rate
lives in :class:`GatewayLimits`, validated on construction the same way
:class:`~repro.chain.params.ChainParams` is — a queue bound of zero or
a negative flush interval should fail at assembly time with the field
name, not stall the event loop mid-experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from repro.errors import ConfigError


@dataclass(frozen=True)
class GatewayLimits:
    """Static admission-control configuration of one gateway."""

    #: per-chain bound on queued (not yet flushed) requests; past it a
    #: request is shed by class.  This is the knob that keeps memory
    #: bounded however many clients pile on.
    max_queue_depth: int = 1024
    #: bound on the overflow lot a served move's own mid-move protocol
    #: transactions park in at a full queue; past it even those are shed
    max_blocked: int = 256
    #: most transactions flushed into one chain's mempool per flush
    batch_size: int = 256
    #: micro-batch period in simulated seconds — admissions are staged
    #: and poured into the mempool together, amortizing per-tx work
    flush_interval: float = 0.25
    #: per-client sustained submissions/second (0 disables rate limiting)
    rate_limit: float = 0.0
    #: per-client token-bucket capacity (burst allowance)
    rate_burst: int = 8
    #: seconds from admission until an unresolved request fails with
    #: :class:`~repro.errors.RequestTimeout` (0 disables deadlines)
    request_timeout: float = 0.0
    #: flush no further than this many *blocks* worth of transactions
    #: into a chain's mempool (``headroom × max_block_txs`` pending).
    #: This is what makes backpressure end-to-end: without it the
    #: bounded admission queue would simply relocate the unbounded
    #: backlog into the mempool.
    mempool_headroom: int = 4
    #: simulated seconds an idempotency record outlives its request's
    #: resolution before eviction (0 retains forever).  This is the
    #: replay window: a retry inside it deduplicates; outside it the
    #: retry is a fresh admission.  Keeps the key table bounded on a
    #: long-running gateway where every request carries a unique key.
    idempotency_retention: float = 300.0
    #: most per-client token buckets tracked at once; past it the
    #: least-recently-active client's bucket is evicted (that client
    #: simply starts over with a full burst allowance if it returns)
    max_clients: int = 4096

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ConfigError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth} — "
                "a gateway that can queue nothing sheds every request"
            )
        if self.max_blocked < 0:
            raise ConfigError(f"max_blocked must be >= 0, got {self.max_blocked}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not 0 < self.flush_interval < inf:
            raise ConfigError(
                f"flush_interval must be finite and positive, got {self.flush_interval!r} — "
                "a non-positive period would spin the flush loop at one instant"
            )
        if not 0 <= self.rate_limit < inf:
            raise ConfigError(
                f"rate_limit must be finite and >= 0 (0 disables), got {self.rate_limit!r}"
            )
        if self.rate_burst < 1:
            raise ConfigError(f"rate_burst must be >= 1, got {self.rate_burst}")
        if not 0 <= self.request_timeout < inf:
            raise ConfigError(
                "request_timeout must be finite and >= 0 (0 disables), "
                f"got {self.request_timeout!r}"
            )
        if self.mempool_headroom < 1:
            raise ConfigError(
                f"mempool_headroom must be >= 1 block, got {self.mempool_headroom} — "
                "a zero headroom would never flush anything into the mempool"
            )
        if not 0 <= self.idempotency_retention < inf:
            raise ConfigError(
                "idempotency_retention must be finite and >= 0 (0 retains forever), "
                f"got {self.idempotency_retention!r}"
            )
        if self.max_clients < 1:
            raise ConfigError(f"max_clients must be >= 1, got {self.max_clients}")


class TokenBucket:
    """Classic token bucket on the simulated clock.

    Refill happens lazily at each ``take`` from the elapsed simulated
    time, so the bucket costs nothing while a client is idle.
    """

    def __init__(self, rate: float, burst: int, now: float = 0.0):
        self.rate = rate
        self.capacity = float(burst)
        self.tokens = float(burst)
        self._last = now

    def take(self, now: float) -> bool:
        """Try to spend one token at simulated time ``now``."""
        if now > self._last:
            self.tokens = min(self.capacity, self.tokens + (now - self._last) * self.rate)
            self._last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False
