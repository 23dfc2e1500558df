import pytest

from croprl.env import NitrogenEnv, florida_scenario, iowa_scenario
from croprl.harness import (baseline_policy, evaluate_policy, run_episode,
                            verify_reward_identity)
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
