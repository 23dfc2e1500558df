import math

import pytest
from hypothesis import given, strategies as st

from croprl.errors import ConfigError
from croprl.reward import RewardBreakdown, RewardConfig, daily_reward

CFG = RewardConfig(w1=0.1, w2=0.1, w3=0.1, w4=1.0, threshold=240.0)

# Published comparison rows: (topwt, total N, total leach, cumulative reward).
# With all weights 0.1 and no overage, the cumulative reward decomposes as
# 0.1*Y - 0.1*N - 0.1*L, which reproduces every row to within rounding.
IOWA_ROWS = [
    (21133.3, 160.0, 0.11, 2097.3),
    (21502.9, 240.0, 0.11, 2126.3),
    (21709.5, 280.0, 0.11, 2142.9),
    (21711.8, 240.0, 0.12, 2147.1),
]
FLORIDA_ROWS = [
    (4393.3, 40.0, 46.0, 430.7),
    (4673.1, 80.0, 65.0, 452.8),
    (5190.4, 160.0, 97.0, 493.3),
    (6310.8, 80.0, 33.0, 619.7),
]


def episode_from_totals(y, n_total, leach_total, threshold=1e9):
    """Reconstruct an episode as one application day plus a harvest day."""
    cfg = RewardConfig(threshold=threshold)
    days = [daily_reward(n_total, leach_total, n_total, False, 0.0, cfg),
            daily_reward(0.0, 0.0, n_total, True, y, cfg)]
    return sum(d.total for d in days)


@pytest.mark.parametrize("y,n,leach,expected", IOWA_ROWS + FLORIDA_ROWS)
def test_published_reward_rows_reproduced(y, n, leach, expected):
    assert episode_from_totals(y, n, leach) == pytest.approx(expected, abs=0.15)


def test_quiet_day_scores_zero():
    b = daily_reward(0.0, 0.0, 0.0, False, 0.0, CFG)
    assert b.total == 0.0
    assert (b.yield_term, b.fert_term, b.leach_term, b.overage_term) == (0, 0, 0, 0)


def test_cost_only_day():
    b = daily_reward(40.0, 0.01, 40.0, False, 0.0, CFG)
    assert b.total == pytest.approx(-0.1 * 40 - 0.1 * 0.01)
    assert b.total == pytest.approx(-4.001)


def test_overage_charged_on_application_days_only():
    over = daily_reward(40.0, 0.0, 280.0, False, 0.0, CFG)
    assert over.overage_term == pytest.approx(1.0 * 40.0)
    idle = daily_reward(0.0, 0.0, 280.0, False, 0.0, CFG)
    assert idle.overage_term == 0.0


def test_clamp_prevents_bonus_below_threshold():
    clamped = daily_reward(40.0, 0.0, 100.0, False, 0.0, CFG)
    assert clamped.overage_term == 0.0
    literal = daily_reward(40.0, 0.0, 100.0, False, 0.0,
                           RewardConfig(threshold=240.0, clamp_overage=False))
    assert literal.overage_term == pytest.approx(100.0 - 240.0)


def test_infinite_threshold_disables_overage():
    cfg = RewardConfig(threshold=math.inf, clamp_overage=False)
    assert daily_reward(160.0, 0.0, 5000.0, False, 0.0, cfg).overage_term == 0.0


def test_harvest_day_includes_yield():
    b = daily_reward(0.0, 0.0, 160.0, True, 21133.3, CFG)
    assert b.yield_term == pytest.approx(2113.33)


def test_negative_inputs_rejected():
    with pytest.raises(ConfigError):
        daily_reward(-1.0, 0.0, 0.0, False, 0.0, CFG)
    with pytest.raises(ConfigError):
        daily_reward(0.0, -0.1, 0.0, False, 0.0, CFG)
    with pytest.raises(ConfigError):
        RewardConfig(w2=-0.1)


def test_all_zero_breakdowns_sum_to_zero():
    days = [daily_reward(0.0, 0.0, 0.0, False, 0.0, CFG) for _ in range(10)]
    assert sum(d.total for d in days) == 0.0


def test_breakdown_total_identity_is_exact():
    b = RewardBreakdown(yield_term=3.0, fert_term=1.0, leach_term=0.25,
                        overage_term=0.5)
    assert b.total == 3.0 - 1.0 - 0.25 - 0.5


@given(actions=st.lists(st.sampled_from([0.0, 40.0, 80.0, 120.0, 160.0]),
                        min_size=1, max_size=200),
       leaches=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=200),
       y=st.floats(0.0, 30000.0))
def test_linearity_of_episode_reward(actions, leaches, y):
    """The episode reward, the sum of daily totals, equals the closed-form
    decomposition."""
    n = min(len(actions), len(leaches))
    actions, leaches = actions[:n], leaches[:n]
    cfg = RewardConfig(threshold=240.0)
    days = []
    cumsum = 0.0
    overage_total = 0.0
    for i, (a, leach) in enumerate(zip(actions, leaches)):
        cumsum += a
        harvest = i == n - 1
        days.append(daily_reward(a, leach, cumsum, harvest, y, cfg))
        if a != 0.0:
            overage_total += max(0.0, cumsum - cfg.threshold)
    expected = (cfg.w1 * y - cfg.w2 * sum(actions) - cfg.w3 * sum(leaches)
                - cfg.w4 * overage_total)
    assert sum(d.total for d in days) == pytest.approx(expected, rel=1e-12,
                                                       abs=1e-9)


@given(leaches=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=50))
def test_zero_fertilizer_episodes_cost_nothing_but_leach(leaches):
    cfg = RewardConfig()
    days = [daily_reward(0.0, leach, 0.0, False, 0.0, cfg) for leach in leaches]
    assert all(d.fert_term == 0.0 and d.overage_term == 0.0 for d in days)
