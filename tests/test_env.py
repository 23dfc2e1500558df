import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest

from croprl.env import (DISCRETE_ACTIONS_KG, MAX_DOSE_KG, NitrogenEnv,
                        day_of_year, florida_scenario, iowa_scenario)
from croprl.errors import ConfigError, EpisodeFinishedError
from croprl.harness import baseline_policy, run_episode
from croprl import reward
from croprl.reward import W2, W3, daily_reward
from croprl.simulator import (SOWN, CropState, advance_day,
                              initial_soil_state)
from croprl.state import FIELD_ORDER, ObservationMask, observe
from croprl.weather import WEATHER_MODES, DailyWeather, WeatherModel

FULL = ObservationMask.full()


def final_state(env):
    """Roll out an episode with no fertilizer; returns the terminal state."""
    _, records = run_episode(env, baseline_policy(0.0), FULL)
    return records[-1].state


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
    # a numpy integer seed plays the same year as the int
    env = NitrogenEnv(iowa_scenario(weather_mode="stochastic"))
    assert env.reset(seed=np.int64(7)) == env.reset(seed=7) \
        != env.reset(seed=8)


@pytest.mark.parametrize("seed", [-3, np.int64(-1), 1.7, 1.0, "1", None,
                                  True])
def test_an_episode_seed_must_be_an_integer_at_least_zero(seed):
    env = NitrogenEnv(iowa_scenario(weather_mode="stochastic"))
    with pytest.raises(ConfigError, match="episode seed"):
        env.reset(seed=seed)


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
    assert env1.records[-1].state == env2.records[-1].state


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        iowa_scenario(planting_doy=10)  # before simulation start
    with pytest.raises(ConfigError):
        iowa_scenario(plant_density=-1.0)
    with pytest.raises(ConfigError):
        iowa_scenario(action_frequency=0)
    with pytest.raises(ConfigError, match="latest_harvest_doy"):
        iowa_scenario(latest_harvest_doy=100)  # before the planting date


@pytest.mark.parametrize("part", ["soil", "crop"])
def test_a_site_sets_only_what_differs_between_the_presets(part):
    """Each soil and cultivar field but the layer count differs between
    Iowa and Florida; a value both presets share is a simulator constant."""
    iowa = getattr(iowa_scenario(), part)
    florida = getattr(florida_scenario(), part)
    for field in dataclasses.fields(iowa):
        if field.name != "n_layers":
            assert getattr(iowa, field.name) != getattr(florida, field.name), \
                field.name


NAN = float("nan")
TWELVE_WITH_NAN = (NAN,) + (20.0,) * 11


@pytest.mark.parametrize("part,name,value", [
    # a value that is not finite, in each config dataclass
    ("soil", "drain_coef", NAN),
    ("crop", "gdd_flowering", math.inf),
    ("climate", "tmax_mean", TWELVE_WITH_NAN),
    ("climate", "rain_mm", TWELVE_WITH_NAN),
    ("scenario", "initial_organic_n", NAN),
    ("scenario", "initial_nitrate", (8.0, NAN, 3.0)),
    ("scenario", "plant_density", NAN),
    ("scenario", "n_threshold", NAN),
    # a threshold below zero would charge an overage on every dose
    ("scenario", "n_threshold", -0.1),
    # a fraction outside [0, 1]
    ("soil", "drain_coef", 1.5),
    # negative or misshapen initial pools
    ("scenario", "initial_nitrate", (-50.0, 0.0, 0.0)),
    ("scenario", "initial_organic_n", -1.0),
    ("scenario", "initial_nitrate", (8.0, 4.0)),
    # growth stages out of order, flowering before emergence, and a water
    # content above the soil volume
    ("crop", "gdd_maturity", 700.0),
    ("crop", "gdd_flowering", 50.0),
    ("soil", "saturation", 1.5),
    ("soil", "field_capacity", 0.1),
    # eleven months
    ("climate", "rain_mm", (5.0,) * 11),
    # a bool, which is not a number: before, it was taken as 1.0
    ("scenario", "plant_density", True),
    ("scenario", "n_threshold", True),
    # an exploration rate that never falls, or falls to zero at once
    ("scenario", "epsilon_decay", 0.0),
    ("scenario", "epsilon_decay", 1.0),
    ("scenario", "epsilon_decay", NAN),
    ("scenario", "epsilon_decay", True),
    ("climate", "rain_mm", (True,) * 12),
], ids=lambda v: "one_nan_month" if v is TWELVE_WITH_NAN else
    str(v).replace(" ", ""))
def test_bad_physical_parameters_are_refused_at_construction(part, name,
                                                             value):
    """Refused when the scenario is built, not mid-episode or as wrong
    numbers at its end."""
    scenario = iowa_scenario()
    with pytest.raises(ConfigError, match=name):
        if part == "scenario":
            dataclasses.replace(scenario, **{name: value})
        else:
            dataclasses.replace(scenario, **{part: dataclasses.replace(
                getattr(scenario, part), **{name: value})})


@pytest.mark.parametrize("field,doy", [
    ("start_doy", 0), ("planting_doy", 400), ("latest_harvest_doy", 367),
    ("latest_harvest_doy", -5)])
def test_dates_outside_the_weather_table_rejected(field, doy):
    with pytest.raises(ConfigError, match=field):
        florida_scenario(**{field: doy})


def test_open_season_ends_on_the_last_day_of_the_weather_table():
    # planted on DOY 300 with no harvest date, the crop cannot mature
    # before the table ends
    scen = florida_scenario(start_doy=280, planting_doy=300)
    state = final_state(NitrogenEnv(scen))
    assert scen.start_doy + state.dap == 366
    assert state.istage < 5


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


@pytest.mark.parametrize("dose", [float("nan"), float("inf"), float("-inf"),
                                  1e308, True, "40", b"40"])
def test_non_finite_dose_rejected(iowa_env, dose):
    iowa_env.reset(seed=0)
    with pytest.raises(ValueError):
        iowa_env.step(dose)
    assert iowa_env.records == []
    assert iowa_env.step(0.0).dap == 0  # the rejected dose left no trace


@pytest.mark.parametrize("dose", [40, np.int64(40), np.float32(40.0)],
                         ids=["int", "int64", "float32"])
def test_a_real_dose_that_is_not_a_float_steps_as_its_float(iowa_env, dose):
    iowa_env.reset(seed=0)
    want = iowa_env.step(40.0)
    iowa_env.reset(seed=0)
    got = iowa_env.step(dose)
    assert got == want and type(got.action_requested) is float
    for refused in (True, np.True_):
        with pytest.raises(ValueError, match="must be a number"):
            iowa_env.step(refused)


@pytest.mark.parametrize("preset", [iowa_scenario, florida_scenario])
def test_largest_dose_every_day_stays_finite(preset, monkeypatch):
    # under reward weights far above any price ratio, every dose an overage
    for name in ("W1", "W2", "W3", "W4"):
        monkeypatch.setattr(reward, name, 1e6)
    env = NitrogenEnv(preset(n_threshold=0.0))
    env.reset(seed=0)
    total = 0.0
    while not env.done:
        total += env.step(MAX_DOSE_KG).reward
    values = [v for v in env.records[-1].state._asdict().values()
              if isinstance(v, float)]
    assert all(math.isfinite(v) for v in [total, *values])


def test_reward_matches_cost_terms_on_application_day(iowa_env):
    iowa_env.reset(seed=0)
    record = iowa_env.step(40.0)
    assert iowa_env.records == [record]
    expected = daily_reward(40.0, record.state.tleachd, 40.0, False,
                            0.0, iowa_env.config.n_threshold)
    assert record.reward == expected.total
    assert record.reward == pytest.approx(
        -W2 * 40.0 - W3 * record.state.tleachd)
    b = record.breakdown
    assert b.total == b.yield_term - b.fert_term - b.leach_term - b.overage_term


def test_action_frequency_gates_off_schedule_days():
    env = NitrogenEnv(iowa_scenario(action_frequency=10))
    env.reset(seed=0)
    env.step(40.0)   # day 0: permitted
    env.step(160.0)  # day 1
    env.step(160.0)  # day 2
    record = env.step(160.0)  # day 3
    assert record.state.cumsumfert == 40.0
    records = env.records
    assert [r.action_applied for r in records] == [40.0, 0.0, 0.0, 0.0]
    for _ in range(6):
        env.step(80.0)            # days 4..9
    record = env.step(80.0)      # day 10: permitted again
    assert record.state.cumsumfert == 120.0


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


def test_running_sum_identities_hold():
    rng = np.random.default_rng(1234)
    env = NitrogenEnv(iowa_scenario())
    state = env.reset(seed=11)
    sums = dict(fert=0.0, leach=0.0, nox=0.0, uptake=0.0)
    prev = state
    while not env.done:
        rec = env.step(float(rng.choice(DISCRETE_ACTIONS_KG)))
        state = rec.state
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
    flags, harvests = [], []
    while not iowa_env.done:
        record = iowa_env.step(0.0)
        flags.append(iowa_env.done)
        harvests.append(record.breakdown.yield_term > 0.0)
    assert sum(flags) == 1
    assert flags[-1]
    assert harvests == flags  # the harvest is paid on that step only


def test_observe_through_env(iowa_env):
    state = iowa_env.reset(seed=0)
    assert observe(state, FULL).shape == (30,)
    assert observe(state, ObservationMask.partial()).shape == (10,)


def test_episode_log_records_every_day(iowa_env):
    iowa_env.reset(seed=0)
    while not iowa_env.done:
        iowa_env.step(40.0 if len(iowa_env.records) == 50 else 0.0)
    records = iowa_env.records
    assert len(records) == records[-1].state.dap
    assert [r.dap for r in records] == list(range(len(records)))
    need = {"dap", "action_requested", "action_applied", "reward",
            "breakdown", "state"}
    logged = records[0].as_dict()
    assert need <= set(logged)
    assert len(logged["state"]) == 28


def test_day_record_fields_and_log_keys_keep_their_order(iowa_env,
                                                        florida_env):
    order = ("dap", "action_requested", "action_applied", "reward",
             "breakdown", "state")
    for env in (iowa_env, florida_env):
        cfg = env.config
        reset_state = env.reset(seed=0)
        record = env.step(40.0)
        assert type(record)._fields == order
        logged = record.as_dict()
        assert tuple(logged) == order
        assert logged["breakdown"] == record.breakdown._asdict()
        assert tuple(logged["state"]) == FIELD_ORDER
        # the records are built by tuple.__new__, which does not count the
        # values against the fields as a NamedTuple's own __new__ does
        day = advance_day(
            CropState(sown=True, istage=SOWN),
            initial_soil_state(cfg.soil, cfg.initial_nitrate,
                               cfg.initial_organic_n),
            DailyWeather(5.0, 20.0, 28.0, 15.0), 40.0, cfg.soil, cfg.crop,
            cfg.plant_density)
        for r in (*day, record, record.breakdown, record.state, reset_state):
            assert len(r) == len(type(r)._fields), type(r).__name__


@pytest.mark.parametrize("mode", WEATHER_MODES)
@pytest.mark.parametrize("preset", [iowa_scenario, florida_scenario])
def test_weather_stops_at_the_last_day_an_episode_reads(preset, mode):
    scenario = preset(weather_mode=mode, weather_seed=5)
    last = scenario.latest_harvest_doy or 366
    env = NitrogenEnv(scenario)
    full_year = WeatherModel(scenario.climate, mode, seed=5)
    for seed in (0, 1):
        series = env.weather_model.series_for_episode(seed)
        assert len(series) == last
        assert series == full_year.series_for_episode(seed)[:last]


# sha256 over the JSON of every DayRecord of three episodes (seeds 0, 1, 2)
# under GOLDEN_SCHEDULE; any change to a simulated bit changes the hash
GOLDEN_SCHEDULE = (0.0, 40.0, 0.0, 0.0, 120.0, 0.0, 80.0, 0.0, 0.0, 160.0,
                   0.0, 0.0, 20.0)
GOLDEN = {
    ("iowa", "fixed-trace"):
        "ac19b553f192334e9a99ba5e26b44813bab2a054dc71330f899a8a16523e75a5",
    ("iowa", "stochastic"):
        "04bd2b41600e16e8bae625a037cbd6dd3c5b5cb03970b45f5de29f7d5dd3889b",
    ("florida", "fixed-trace"):
        "3005e594d0ce08f7dac8bcc7edb033e270a261a776c83e522a98b04706113bee",
    ("florida", "stochastic"):
        "19bad2318e9a671c0a98b18c1c452f8451f21e474ee08a3a397647b8af7eb3b1",
}


def trajectory_digest(location, mode, schedule):
    maker = {"iowa": iowa_scenario, "florida": florida_scenario}[location]
    env = NitrogenEnv(maker(weather_mode=mode, weather_seed=5))
    digest = hashlib.sha256()
    for seed in (0, 1, 2):
        env.reset(seed=seed)
        while not env.done:
            env.step(schedule[len(env.records) % len(schedule)])
        for rec in env.records:
            digest.update(json.dumps(rec.as_dict(), sort_keys=True).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("location,mode", sorted(GOLDEN))
def test_golden_trajectories(location, mode):
    assert trajectory_digest(location, mode, GOLDEN_SCHEDULE) \
        == GOLDEN[location, mode]


# the same hash without fertilizer: most of these days are N-limited
# (nstres < 1), a branch the GOLDEN_SCHEDULE days never reach
GOLDEN_ZERO_DOSE = {
    ("iowa", "fixed-trace"):
        "b32cba0dfa9f5187848c16aac01854a5a13c496a63888314dc72df89a26f7ba9",
    ("iowa", "stochastic"):
        "399cfc0008c4da045f78ea3f3b6932059f4772fbc0c59bab6f8200c186310e7c",
    ("florida", "fixed-trace"):
        "3397d453b08c8203559e081fb790bbf0fe7a001c52f27c5b3f369d3a6b0178c8",
    ("florida", "stochastic"):
        "cfa1d592d8019ae0cbb125438ab1c4d1dd5845336d53e485e7046df3559ff660",
}


@pytest.mark.parametrize("location,mode", sorted(GOLDEN_ZERO_DOSE))
def test_zero_dose_golden_trajectories(location, mode):
    assert trajectory_digest(location, mode, (0.0,)) \
        == GOLDEN_ZERO_DOSE[location, mode]
