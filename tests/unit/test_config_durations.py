"""Configs refuse durations and rates that are not finite.

A period, timeout or retention of ``inf`` or ``nan`` passes a plain
``> 0`` / ``>= 0`` check, then fails far from the call site: a gateway
deadline of ``inf`` makes ``Gateway.submit`` raise from the simulator,
``nan`` silently turns deadlines off or makes refill unlimited, and an
infinite loop period fails only at ``start()``.  Each config must raise
:class:`~repro.errors.ConfigError` naming the field when it is built.
"""

from math import inf, nan

import pytest

from repro.chain.params import burrow_params
from repro.errors import ConfigError
from repro.gateway import GatewayLimits
from repro.health.monitor import HealthMonitor
from repro.net.sim import Simulator
from repro.rebalance.rebalancer import Rebalancer
from repro.rebalance.signals import ShardLoadMonitor
from tests.helpers import make_chain_pair


@pytest.mark.parametrize(
    "field, value",
    [
        ("flush_interval", inf),
        ("rate_limit", inf),
        ("rate_limit", nan),
        ("request_timeout", inf),
        ("request_timeout", nan),
        ("idempotency_retention", inf),
        ("idempotency_retention", nan),
    ],
)
def test_gateway_limits_refuse_non_finite(field, value):
    with pytest.raises(ConfigError, match=field):
        GatewayLimits(**{field: value})


def test_block_interval_refuses_inf():
    with pytest.raises(ConfigError, match="block_interval"):
        burrow_params(1, block_interval=inf)


@pytest.mark.parametrize("value", [inf, nan], ids=["inf", "nan"])
@pytest.mark.parametrize("field", ["interval", "move_timeout"])
def test_rebalancer_refuses_non_finite(field, value):
    with pytest.raises(ConfigError, match=field):
        Rebalancer(Simulator(seed=0), plane=None, **{field: value})


@pytest.mark.parametrize("value", [inf, nan], ids=["inf", "nan"])
def test_health_monitor_refuses_non_finite_interval(value):
    with pytest.raises(ConfigError, match="interval"):
        HealthMonitor(Simulator(seed=0), interval=value)


@pytest.mark.parametrize("window_blocks", [0, -1])
def test_shard_load_monitor_refuses_an_empty_window(window_blocks):
    # A zero-length window keeps no block, so a shard whose blocks are
    # all full would read 0.0 utilization forever.
    with pytest.raises(ConfigError, match="window_blocks"):
        ShardLoadMonitor(make_chain_pair()[:1], window_blocks=window_blocks)
