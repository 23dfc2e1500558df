import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from croprl.env import NitrogenEnv, florida_scenario, iowa_scenario
from croprl.harness import (_dose_key, _pct_delta, baseline_policy,
                            convergence_episode, evaluate_policy,
                            run_episode, verify_reward_identity)
from croprl.state import ObservationMask


@pytest.mark.parametrize("shift", [1.0, float("nan")])
def test_reward_identity_catches_a_wrong_or_nan_reward(shift):
    env = NitrogenEnv(iowa_scenario())
    _, records = run_episode(env, baseline_policy(160.0), ObservationMask.full())
    day = records[len(records) // 2]
    day.reward += shift
    with pytest.raises(AssertionError, match=f"day {day.dap}"):
        verify_reward_identity(records, env.config.reward)


def test_mean_summary_averages_every_episode():
    # three stochastic years; V5 falls on DAP 56, 57 and 56
    mean, per = evaluate_policy(baseline_policy(160.0),
                                iowa_scenario(weather_mode="stochastic"),
                                ObservationMask.full(), n_episodes=3)
    assert [s.applications for s in per] == [[(56, 160.0)], [(57, 160.0)],
                                             [(56, 160.0)]]
    assert [s.terminal_dap for s in per] == [156, 159, 156]
    assert mean.terminal_dap == 157.0
    assert mean.applications == [(56, 320.0 / 3), (57, 160.0 / 3)]
    assert mean.total_n == sum(a for _, a in mean.applications) == 160.0
    assert mean.topwt == pytest.approx(sum(s.topwt for s in per) / 3)


def test_mean_of_one_episode_is_that_episode():
    mean, (only,) = evaluate_policy(baseline_policy(160.0), iowa_scenario(),
                                    ObservationMask.full())
    assert mean.as_dict() == only.as_dict()



@pytest.mark.parametrize("frequency", [1, 7, 10])
@pytest.mark.parametrize("preset", [iowa_scenario, florida_scenario])
def test_baseline_dose_lands_on_the_first_permitted_day_from_v5(preset,
                                                                frequency):
    """Each episode applies the dose once, on the first DAP at or after V5
    that is a multiple of the action frequency."""
    scenario = preset(action_frequency=frequency)
    env = NitrogenEnv(scenario)
    # the state each day's policy call sees, in an episode without N; the
    # dosed episode follows it up to the day the dose lands
    mornings = [env.reset(seed=0)]
    _, records = run_episode(env, baseline_policy(0.0), ObservationMask.full())
    mornings += [r.state for r in records]
    v5 = next(dap for dap, s in enumerate(mornings) if s.vstage >= 5.0)
    expected = next(dap for dap in range(v5, len(records))
                    if dap % frequency == 0)
    _, per = evaluate_policy(baseline_policy(160.0), scenario,
                             ObservationMask.full(), n_episodes=2)
    assert [s.applications for s in per] == [[(expected, 160.0)]] * 2


# ---------------------------------------------------------------------------
# convergence episode
# ---------------------------------------------------------------------------

def trailing_means(rewards, window):
    """(last episode of the window, mean of the window), oldest first."""
    return [(i, float(np.mean(rewards[i - window + 1:i + 1])))
            for i in range(window - 1, len(rewards))]


def brute_force_convergence(rewards, window, rel_tol=0.01):
    """The first episode whose trailing mean is within ``rel_tol`` of the
    final trailing mean, by searching every window."""
    final = trailing_means(rewards, window)[-1][1]
    return next(i for i, mean in trailing_means(rewards, window)
                if abs(mean - final) <= rel_tol * max(abs(final), 1e-9))


def test_convergence_needs_a_full_window():
    assert convergence_episode([1.0] * 49) is None
    assert convergence_episode([]) is None
    assert convergence_episode([1.0] * 4, window=5) is None


@pytest.mark.parametrize("value", [0.0, 3.5, -120.0])
def test_constant_series_converges_with_its_first_window(value):
    assert convergence_episode([value] * 80) == 49
    assert convergence_episode([value] * 7, window=3) == 2


def test_step_series_converges_once_the_window_is_past_the_step():
    rewards = [0.0] * 60 + [10.0] * 100
    # a window holding any 0 has a mean <= 9.8, outside 1% of 10
    assert convergence_episode(rewards) == 60 + 49
    assert convergence_episode(rewards) == brute_force_convergence(rewards, 50)


def test_negative_final_mean_uses_its_magnitude():
    rewards = [-1000.0] * 50 + [-100.0] * 100
    assert convergence_episode(rewards) == 50 + 49
    assert convergence_episode(rewards) == brute_force_convergence(rewards, 50)


@given(data=st.data(), window=st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_convergence_matches_a_brute_force_search(data, window):
    rewards = data.draw(st.lists(st.floats(-1e3, 1e3), min_size=window,
                                 max_size=window + 40))
    means = trailing_means(rewards, window)
    final = means[-1][1]
    tol = 0.01 * max(abs(final), 1e-9)
    # a window mean within rounding of the 1% boundary may fall either side
    assume(all(abs(abs(mean - final) - tol) > 1e-9 * max(abs(final), 1.0)
               for _, mean in means))
    assert convergence_episode(rewards, window=window) \
        == brute_force_convergence(rewards, window)


def test_pct_delta_from_a_zero_reference():
    assert _pct_delta(0.0, 0.0) == 0.0
    assert _pct_delta(5.0, 0.0) == float("inf")
    assert _pct_delta(-5.0, 0.0) == float("inf")
    # a negative reference divides by its magnitude
    assert _pct_delta(-3.0, -2.0) == -50.0


@pytest.mark.parametrize("amount,key", [(-0.0, "0"), (160.0, "160"),
                                        (50.2, "50.2")])
def test_dose_keys_are_exact_without_a_trailing_zero(amount, key):
    assert _dose_key(amount) == key
