import math

import pytest
from hypothesis import given, strategies as st

from croprl.errors import ConfigError
from croprl.reward import W1, W2, W3, W4, RewardBreakdown, daily_reward

THRESHOLD = 240.0  # Iowa's, kg/ha
NAN, INF = math.nan, math.inf

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
    days = [daily_reward(n_total, leach_total, n_total, False, 0.0, threshold),
            daily_reward(0.0, 0.0, n_total, True, y, threshold)]
    return sum(d.total for d in days)


@pytest.mark.parametrize("y,n,leach,expected", IOWA_ROWS + FLORIDA_ROWS)
def test_published_reward_rows_reproduced(y, n, leach, expected):
    assert episode_from_totals(y, n, leach) == pytest.approx(expected, abs=0.15)


def test_quiet_day_scores_zero():
    b = daily_reward(0.0, 0.0, 0.0, False, 0.0, THRESHOLD)
    assert b.total == 0.0
    assert (b.yield_term, b.fert_term, b.leach_term, b.overage_term) == (0, 0, 0, 0)


def test_cost_only_day():
    b = daily_reward(40.0, 0.01, 40.0, False, 0.0, THRESHOLD)
    assert b.total == pytest.approx(-0.1 * 40 - 0.1 * 0.01)
    assert b.total == pytest.approx(-4.001)


def test_overage_charged_on_application_days_only():
    over = daily_reward(40.0, 0.0, 280.0, False, 0.0, THRESHOLD)
    assert over.overage_term == pytest.approx(1.0 * 40.0)
    idle = daily_reward(0.0, 0.0, 280.0, False, 0.0, THRESHOLD)
    assert idle.overage_term == 0.0


def test_clamp_prevents_bonus_below_threshold():
    clamped = daily_reward(40.0, 0.0, 100.0, False, 0.0, THRESHOLD)
    assert clamped.overage_term == 0.0


def test_infinite_threshold_disables_overage():
    assert daily_reward(160.0, 0.0, 5000.0, False, 0.0,
                        INF).overage_term == 0.0


def test_harvest_day_includes_yield():
    b = daily_reward(0.0, 0.0, 160.0, True, 21133.3, THRESHOLD)
    assert b.yield_term == pytest.approx(2113.33)


def test_negative_inputs_rejected():
    """Negative, NaN and infinite inputs are refused, not turned into NaN or
    infinite terms; the threshold's own range is ``ScenarioConfig``'s."""
    for bad in (-1.0, NAN, INF):
        for args in ((bad, 0.0, 0.0), (0.0, bad, 0.0), (0.0, 0.0, bad)):
            with pytest.raises(ConfigError, match="reward inputs"):
                daily_reward(*args, False, 0.0, THRESHOLD)
        with pytest.raises(ConfigError, match="harvest yield"):
            daily_reward(0.0, 0.0, 0.0, True, bad, THRESHOLD)
    with pytest.raises(ConfigError, match="reward inputs"):
        daily_reward(INF, 0.0, INF, False, 0.0, THRESHOLD)
    for threshold in (-0.1, NAN):
        with pytest.raises(ConfigError, match="reward inputs"):
            daily_reward(40.0, 0.0, 40.0, False, 0.0, threshold)


def test_all_zero_breakdowns_sum_to_zero():
    days = [daily_reward(0.0, 0.0, 0.0, False, 0.0, THRESHOLD) for _ in range(10)]
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
    days = []
    cumsum = 0.0
    overage_total = 0.0
    for i, (a, leach) in enumerate(zip(actions, leaches)):
        cumsum += a
        harvest = i == n - 1
        days.append(daily_reward(a, leach, cumsum, harvest, y, THRESHOLD))
        if a != 0.0:
            overage_total += max(0.0, cumsum - THRESHOLD)
    expected = (W1 * y - W2 * sum(actions) - W3 * sum(leaches)
                - W4 * overage_total)
    assert sum(d.total for d in days) == pytest.approx(expected, rel=1e-12,
                                                       abs=1e-9)


@given(leaches=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=50))
def test_zero_fertilizer_episodes_cost_nothing_but_leach(leaches):
    days = [daily_reward(0.0, leach, 0.0, False, 0.0, THRESHOLD)
            for leach in leaches]
    assert all(d.fert_term == 0.0 and d.overage_term == 0.0 for d in days)
