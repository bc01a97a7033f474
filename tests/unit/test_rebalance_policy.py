"""Policy-layer edge cases: hysteresis, dedup, cooldowns, determinism.

Views are built directly from plain data — the policy never needs a
live cluster, which is exactly the decoupling the signal plane buys.
"""

import pytest

from repro.crypto.keys import Address
from repro.errors import ConfigError
from repro.rebalance.policy import RebalancePolicy, spread_target
from repro.rebalance.signals import ShardLoad, ShardLoadView


def addr(n: int) -> Address:
    return Address(bytes([n]) * 20)


def make_view(pressures, hotness=None, placement=None, at=0.0):
    shards = {
        i: ShardLoad(i, p) for i, p in pressures.items()
    }
    return ShardLoadView(at, shards, hotness, placement)


def skew_view(hot=0.9, cool=0.1, contracts=1, at=0.0):
    """Shard 0 hot, shard 1 cool, ``contracts`` hot contracts on 0."""
    hotness = {addr(i + 1): float(contracts - i) for i in range(contracts)}
    placement = {address: 0 for address in hotness}
    return make_view({0: hot, 1: cool}, hotness, placement, at=at)


def issue_all(policy, decisions, now):
    """Mirror the driver: every emitted decision is actuated."""
    for decision in decisions:
        policy.note_issued(decision, now)
    return decisions


def no_cooldown_policy(**overrides):
    defaults = dict(
        hot_enter=0.8,
        hot_exit=0.5,
        min_gap=0.3,
        contract_cooldown=0.0,
        shard_cooldown=0.0,
    )
    defaults.update(overrides)
    return RebalancePolicy(**defaults)


# ----------------------------------------------------------------------
# Hysteresis
# ----------------------------------------------------------------------


def test_hysteresis_latch_does_not_flap_around_threshold():
    policy = no_cooldown_policy()
    # Below the enter threshold: never hot.
    policy.decide(skew_view(hot=0.79), now=0.0)
    assert not policy.is_hot(0)
    # Crosses enter: latched hot.
    assert policy.decide(skew_view(hot=0.85), now=1.0)
    assert policy.is_hot(0)
    # Oscillating between exit and enter: *stays* hot (no flapping).
    policy.note_finished(addr(1), True, 1.5)
    assert policy.decide(skew_view(hot=0.6), now=2.0)
    assert policy.is_hot(0)
    policy.note_finished(addr(1), True, 2.5)
    assert policy.decide(skew_view(hot=0.79), now=3.0)
    assert policy.is_hot(0)
    # Only dropping to the exit threshold unlatches...
    policy.note_finished(addr(1), True, 3.5)
    assert policy.decide(skew_view(hot=0.5), now=4.0) == []
    assert not policy.is_hot(0)
    # ...and a value below enter does not re-latch.
    assert policy.decide(skew_view(hot=0.79), now=5.0) == []
    assert not policy.is_hot(0)


def test_hot_shards_are_never_targets():
    policy = no_cooldown_policy(max_moves_per_tick=8)
    hotness = {addr(i + 1): 1.0 for i in range(4)}
    placement = {address: 0 for address in hotness}
    view = make_view({0: 0.95, 1: 0.85, 2: 0.1}, hotness, placement)
    decisions = policy.decide(view, now=0.0)
    assert decisions
    assert all(d.target_shard == 2 for d in decisions)


# ----------------------------------------------------------------------
# In-flight accounting
# ----------------------------------------------------------------------


def test_inflight_move_is_never_double_decided():
    policy = no_cooldown_policy()
    first = issue_all(policy, policy.decide(skew_view(), now=0.0), 0.0)
    assert len(first) == 1
    # Once issued, re-evaluating the same hot view must not re-pick it.
    assert addr(1) in policy.inflight
    assert policy.decide(skew_view(), now=1.0) == []
    # Completion frees the slot (cooldowns disabled here).
    policy.note_finished(addr(1), True, 2.0)
    assert policy.inflight == {}
    assert len(policy.decide(skew_view(), now=3.0)) == 1


def test_max_inflight_bounds_concurrent_moves():
    policy = no_cooldown_policy(max_moves_per_tick=10, max_inflight=2)
    decisions = issue_all(
        policy, policy.decide(skew_view(contracts=5), now=0.0), 0.0
    )
    assert len(decisions) == 2
    assert policy.decide(skew_view(contracts=5), now=1.0) == []
    policy.note_finished(decisions[0].contract, True, 2.0)
    assert len(policy.decide(skew_view(contracts=5), now=3.0)) == 1


def test_max_moves_per_tick_bounds_each_evaluation():
    policy = no_cooldown_policy(max_moves_per_tick=2, max_inflight=100)
    assert len(policy.decide(skew_view(contracts=6), now=0.0)) == 2


# ----------------------------------------------------------------------
# Cooldowns
# ----------------------------------------------------------------------


def test_contract_cooldown_expiry():
    policy = no_cooldown_policy(contract_cooldown=100.0)
    assert len(issue_all(policy, policy.decide(skew_view(at=0.0), now=0.0), 0.0)) == 1
    policy.note_finished(addr(1), True, 10.0)
    # Cooldown runs from issue time, success or not: still blocked...
    assert policy.decide(skew_view(at=50.0), now=50.0) == []
    assert policy.cooldown_remaining(addr(1), 50.0) == pytest.approx(50.0)
    # ...and eligible again once it expires.
    assert len(policy.decide(skew_view(at=150.0), now=150.0)) == 1
    assert policy.cooldown_remaining(addr(1), 150.0) == 0.0


def test_failed_move_cannot_retry_within_cooldown():
    policy = no_cooldown_policy(contract_cooldown=100.0)
    assert issue_all(policy, policy.decide(skew_view(), now=0.0), 0.0)
    policy.note_finished(addr(1), False, 5.0)  # the move FAILED
    assert policy.decide(skew_view(at=6.0), now=6.0) == []


def test_shard_cooldown_lets_windows_refill():
    policy = no_cooldown_policy(shard_cooldown=60.0, max_moves_per_tick=1)
    assert len(policy.decide(skew_view(contracts=3), now=0.0)) == 1
    policy.note_finished(addr(1), True, 1.0)
    # The source shard rests even though more hot contracts remain.
    assert policy.decide(skew_view(contracts=3, at=30.0), now=30.0) == []
    assert len(policy.decide(skew_view(contracts=3, at=61.0), now=61.0)) == 1


# ----------------------------------------------------------------------
# Targeting
# ----------------------------------------------------------------------


def test_min_gap_blocks_marginally_cooler_targets():
    policy = no_cooldown_policy(min_gap=0.3)
    view = make_view({0: 0.9, 1: 0.75}, {addr(1): 1.0}, {addr(1): 0})
    assert policy.decide(view, now=0.0) == []
    assert policy.is_hot(0)  # latched, just nowhere to go


def test_target_pick_is_deterministic_and_spreads():
    candidates = [1, 2, 3]
    picks = {addr(n): spread_target(addr(n), candidates) for n in range(1, 40)}
    # Same address, same answer, forever.
    for address, pick in picks.items():
        assert spread_target(address, candidates) == pick
    # The crowd fans out instead of stampeding onto one shard.
    assert len(set(picks.values())) == 3


def test_decisions_use_owner_keyed_spread():
    policy = no_cooldown_policy(max_moves_per_tick=30, max_inflight=30)
    hotness = {addr(i + 1): 1.0 for i in range(20)}
    placement = {address: 0 for address in hotness}
    view = make_view({0: 0.95, 1: 0.0, 2: 0.0, 3: 0.0}, hotness, placement)
    decisions = policy.decide(view, now=0.0)
    assert len(decisions) == 20
    for decision in decisions:
        assert decision.target_shard == spread_target(
            decision.contract, [1, 2, 3]
        )
    assert len({d.target_shard for d in decisions}) >= 2


def test_ranking_breaks_score_ties_on_address_bytes():
    hotness = {addr(3): 1.0, addr(1): 1.0, addr(2): 1.0}
    placement = {address: 0 for address in hotness}
    view = make_view({0: 0.9, 1: 0.0}, hotness, placement)
    ranked = [address for address, _ in view.hottest_contracts(0)]
    assert ranked == [addr(1), addr(2), addr(3)]


# ----------------------------------------------------------------------
# Validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(hot_enter=0.0),
        dict(hot_exit=0.9, hot_enter=0.8),
        dict(hot_exit=-0.1),
        dict(min_gap=0.0),
        dict(contract_cooldown=-1.0),
        dict(shard_cooldown=-1.0),
        dict(max_moves_per_tick=0),
        dict(max_inflight=0),
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ConfigError):
        RebalancePolicy(**kwargs)


def test_spread_target_requires_candidates():
    with pytest.raises(ValueError):
        spread_target(addr(1), [])
