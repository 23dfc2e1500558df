import csv

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from croprl import harness
from croprl.agents import AgentHyper
from croprl.env import NitrogenEnv, florida_scenario, iowa_scenario
from croprl.errors import ConfigError
from croprl.harness import (ExperimentConfig, _dose_key, _pct_delta,
                            baseline_policy, convergence_episode,
                            evaluate_policy, run_ablation, run_episode,
                            run_training, score_episodes, sweep_baselines,
                            verify_reward_identity)
from croprl.simulator import SoilProfile
from croprl.state import ObservationMask


@pytest.mark.parametrize("shift", [1.0, float("nan")])
def test_reward_identity_catches_a_wrong_or_nan_reward(shift):
    env = NitrogenEnv(iowa_scenario())
    _, records = run_episode(env, baseline_policy(160.0), ObservationMask.full())
    i = len(records) // 2
    day = records[i]
    records[i] = day._replace(reward=day.reward + shift)
    with pytest.raises(AssertionError, match=f"day {day.dap}"):
        verify_reward_identity(records, env.config.n_threshold)


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



def test_the_reference_sweep_checks_the_reward_identity(monkeypatch):
    true_reward = harness.daily_reward

    def skewed(*args, **kwargs):
        breakdown = true_reward(*args, **kwargs)
        return breakdown._replace(yield_term=breakdown.yield_term + 1.0)

    monkeypatch.setattr(harness, "daily_reward", skewed)
    with pytest.raises(AssertionError, match="reward identity violated"):
        sweep_baselines(iowa_scenario(), (0.0, 160.0), ObservationMask.full())


def test_scored_episodes_are_evaluate_policys_in_seed_order():
    scenario = iowa_scenario(weather_mode="stochastic")
    mask, policy = ObservationMask.full(), baseline_policy(160.0)
    scored = list(score_episodes(policy, scenario, mask, 3, base_seed=5))
    _, per = evaluate_policy(policy, scenario, mask, 3, 5)
    assert [s.as_dict() for s, _ in scored] == [s.as_dict() for s in per]
    env = NitrogenEnv(scenario)
    for seed, (summary, records) in enumerate(scored, start=5):
        alone, _ = run_episode(env, policy, mask, seed=seed)
        assert summary.as_dict() == alone.as_dict()
        # each episode keeps its own records, not the env's latest ones
        assert records[-1].state.dap == summary.terminal_dap
        assert verify_reward_identity(records, scenario.n_threshold) == 0.0


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


@pytest.mark.parametrize("preset", [iowa_scenario, florida_scenario])
def test_dqn_explores_at_its_presets_decay(tmp_path, preset):
    """Iowa decays at 0.992 and Florida at 0.994, as in the paper."""
    scenario = preset()
    run_training(ExperimentConfig(scenario, hyper=AgentHyper(episodes=2),
                                  trials=1, seeds=(4,), baseline_grid=(0.0,),
                                  out_dir=tmp_path))
    with open(tmp_path / "trial_4_curve.csv") as fh:
        epsilons = [float(row["epsilon"]) for row in csv.DictReader(fh)]
    assert epsilons == [1.0, scenario.epsilon_decay]


@pytest.mark.parametrize("name,build", [
    ("action_frequency", lambda: iowa_scenario(action_frequency=2.5)),
    ("start_doy", lambda: iowa_scenario(start_doy=100.5)),
    ("latest_harvest_doy", lambda: iowa_scenario(latest_harvest_doy=290.0)),
    ("n_layers", lambda: SoilProfile(depth_cm=150.0, field_capacity=0.30,
                                     saturation=0.42, wilting_point=0.13,
                                     drain_coef=0.4, n_layers=3.0)),
    ("seeds", lambda: ExperimentConfig(iowa_scenario(), trials=1,
                                       seeds=(1.5,))),
    ("batch_size", lambda: AgentHyper(batch_size=8.0)),
    ("n_episodes", lambda: evaluate_policy(
        baseline_policy(0.0), iowa_scenario(), ObservationMask.full(),
        n_episodes=2.5)),
    # a bool is not an integer: before, these ran one trial named
    # trial_True, a batch of 1 and one episode
    pytest.param("seeds", lambda: ExperimentConfig(
        iowa_scenario(), trials=1, seeds=(True,)), id="seeds-True"),
    pytest.param("batch_size", lambda: AgentHyper(batch_size=True, warmup=0),
                 id="batch_size-True"),
    pytest.param("n_episodes", lambda: evaluate_policy(
        baseline_policy(0.0), iowa_scenario(), ObservationMask.full(),
        n_episodes=True), id="n_episodes-True"),
    # nor is it a dose: before, this one dosed 1 kg/ha
    pytest.param("baseline amount", lambda: baseline_policy(True),
                 id="baseline-True"),
])
def test_an_integer_setting_refuses_a_non_integer(name, build):
    # before, these ran (every 5th day dosed at a frequency of 2.5) or
    # failed later with a bare TypeError
    with pytest.raises(ConfigError, match=f"{name} must be"):
        build()


def test_an_unknown_ablation_axis_is_refused_before_any_directory(tmp_path):
    out = tmp_path / "out"
    config = ExperimentConfig(iowa_scenario(), trials=1, seeds=(1,),
                              out_dir=out)
    with pytest.raises(ConfigError, match="unknown ablation axis 'bogus'"):
        run_ablation(config, "bogus")
    assert not out.exists()


def test_an_unknown_agent_kind_is_refused():
    with pytest.raises(ConfigError, match="unknown agent kind 'ppo'"):
        ExperimentConfig(iowa_scenario(), agent_kind="ppo")


def test_an_unknown_observation_kind_is_refused():
    with pytest.raises(ConfigError, match="run.observation"):
        ExperimentConfig(iowa_scenario(), observation="bogus")
