import dataclasses

import numpy as np
import pytest

from croprl.env import (DISCRETE_ACTIONS_KG, NitrogenEnv, day_of_year,
                        florida_scenario, iowa_scenario)
from croprl.errors import ConfigError, EpisodeFinishedError
from croprl.harness import baseline_policy, run_episode
from croprl.reward import daily_reward
from croprl.state import ObservationMask, observe

FULL = ObservationMask.full()


def final_state(env):
    """Roll out an episode with no fertilizer; returns the terminal state."""
    run_episode(env, baseline_policy(0.0), FULL)
    return env.state


def test_day_of_year_helper():
    assert day_of_year(1, 1) == 1
    assert day_of_year(4, 25) == 116
    assert day_of_year(10, 24) == 298
    with pytest.raises(ConfigError):
        day_of_year(2, 30)


def test_iowa_reset_state(iowa_env):
    state = iowa_env.reset(seed=7)
    assert state.dap == 0
    assert state.cumsumfert == 0.0
    assert state.pltpop == 7.6
    assert state.cleach == state.cnox == state.wtnup == state.totaml == 0.0
    assert state.istage == 0


def test_florida_reset_state(florida_env):
    state = florida_env.reset(seed=7)
    assert state.pltpop == 7.2
    assert len(state.sw) == 3  # three layers spanning the 180 cm profile
    assert florida_env.config.soil.depth_cm == 180.0


def test_reset_is_deterministic(iowa_env):
    a = iowa_env.reset(seed=7)
    b = iowa_env.reset(seed=7)
    assert a == b


def test_identical_seed_and_actions_give_identical_trajectory():
    env1, env2 = NitrogenEnv(iowa_scenario()), NitrogenEnv(iowa_scenario())
    rng = np.random.default_rng(5)
    actions = [float(rng.choice(DISCRETE_ACTIONS_KG)) for _ in range(400)]
    s1, s2 = env1.reset(seed=3), env2.reset(seed=3)
    rewards1, rewards2 = [], []
    i = 0
    while not env1.done:
        rewards1.append(env1.step(actions[i]).reward)
        rewards2.append(env2.step(actions[i]).reward)
        i += 1
    assert env2.done
    assert rewards1 == rewards2
    assert env1.state == env2.state


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        iowa_scenario(planting_doy=10)  # before simulation start
    with pytest.raises(ConfigError):
        iowa_scenario(plant_density=-1.0)
    with pytest.raises(ConfigError):
        iowa_scenario(irrigation=2.0)
    with pytest.raises(ConfigError):
        iowa_scenario(action_frequency=0)


def test_step_after_done_raises(iowa_env):
    iowa_env.reset(seed=0)
    while not iowa_env.done:
        iowa_env.step(0.0)
    with pytest.raises(EpisodeFinishedError):
        iowa_env.step(0.0)


def test_negative_action_rejected(iowa_env):
    iowa_env.reset(seed=0)
    with pytest.raises(ValueError):
        iowa_env.step(-5.0)


@pytest.mark.parametrize("dose", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_dose_rejected(iowa_env, dose):
    iowa_env.reset(seed=0)
    with pytest.raises(ValueError):
        iowa_env.step(dose)
    assert iowa_env.state.dap == 0 and iowa_env.records == []


def test_reward_matches_cost_terms_on_application_day(iowa_env):
    state = iowa_env.reset(seed=0)
    result = iowa_env.step(40.0)
    cfg = iowa_env.config.reward
    expected = daily_reward(40.0, result.next_state.tleachd, 40.0, False,
                            0.0, cfg)
    assert result.reward == expected.total
    assert result.reward == pytest.approx(
        -cfg.w2 * 40.0 - cfg.w3 * result.next_state.tleachd)
    b = result.reward_breakdown
    assert b.total == b.yield_term - b.fert_term - b.leach_term - b.overage_term


def test_action_frequency_gates_off_schedule_days():
    env = NitrogenEnv(iowa_scenario(action_frequency=10))
    env.reset(seed=0)
    env.step(40.0)   # day 0: permitted
    env.step(160.0)  # day 1
    env.step(160.0)  # day 2
    result = env.step(160.0)  # day 3
    assert result.next_state.cumsumfert == 40.0
    records = env.records
    assert [r.action_applied for r in records] == [40.0, 0.0, 0.0, 0.0]
    for _ in range(6):
        result = env.step(80.0)  # days 4..9
    result = env.step(80.0)      # day 10: permitted again
    assert result.next_state.cumsumfert == 120.0


def test_action_frequency_pattern_over_full_episode():
    env = NitrogenEnv(iowa_scenario(action_frequency=10))
    env.reset(seed=0)
    while not env.done:
        env.step(40.0)
    for rec in env.records:
        if rec.dap % 10 == 0:
            assert rec.action_applied == 40.0
        else:
            assert rec.action_applied == 0.0


@pytest.mark.parametrize("maker", [iowa_scenario, florida_scenario])
def test_episode_length_bounds(maker):
    state = final_state(NitrogenEnv(maker()))
    assert 100 <= state.dap <= 200


def test_iowa_respects_latest_harvest_window():
    # a very late-maturing cultivar forces the calendar cutoff
    scen = iowa_scenario()
    slow = dataclasses.replace(scen.crop, gdd_maturity=9000.0)
    state = final_state(NitrogenEnv(dataclasses.replace(scen, crop=slow)))
    assert scen.start_doy + state.dap == scen.latest_harvest_doy
    assert state.istage < 5


def test_running_sum_identities_hold(random_action_sequence):
    env = NitrogenEnv(iowa_scenario())
    state = env.reset(seed=11)
    sums = dict(fert=0.0, leach=0.0, nox=0.0, uptake=0.0)
    prev = state
    while not env.done:
        result = env.step(random_action_sequence(prev))
        state = result.next_state
        rec = env.records[-1]
        sums["fert"] += rec.action_applied
        sums["leach"] += state.tleachd
        sums["nox"] += state.tnoxd
        sums["uptake"] += state.trnu
        assert state.cumsumfert == pytest.approx(sums["fert"], rel=1e-9)
        assert state.cleach == pytest.approx(sums["leach"], rel=1e-9)
        assert state.cnox == pytest.approx(sums["nox"], rel=1e-9)
        assert state.wtnup == pytest.approx(sums["uptake"], rel=1e-9)
        # monotone cumulatives and ordered temperatures
        assert state.tmax >= state.tmin
        assert state.cumsumfert >= prev.cumsumfert
        assert state.cleach >= prev.cleach
        assert state.dap == prev.dap + 1
        prev = state


def test_done_exactly_once_at_terminal_step(iowa_env):
    iowa_env.reset(seed=0)
    flags = []
    while not iowa_env.done:
        flags.append(iowa_env.step(0.0).done)
    assert sum(flags) == 1
    assert flags[-1]


def test_observe_through_env(iowa_env):
    state = iowa_env.reset(seed=0)
    assert observe(state, FULL).shape == (30,)
    assert observe(state, ObservationMask.partial()).shape == (10,)


def test_episode_log_records_every_day(iowa_env):
    iowa_env.reset(seed=0)
    while not iowa_env.done:
        iowa_env.step(40.0 if iowa_env.state.dap == 50 else 0.0)
    records = iowa_env.records
    assert len(records) == iowa_env.state.dap
    assert [r.dap for r in records] == list(range(len(records)))
    need = {"dap", "action_requested", "action_applied", "reward",
            "breakdown", "state"}
    logged = records[0].as_dict()
    assert need <= set(logged)
    assert len(logged["state"]) == 28
