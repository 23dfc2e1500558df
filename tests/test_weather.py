import dataclasses

import numpy as np
import pytest

from croprl import weather
from croprl.env import SCENARIO_PRESETS, iowa_scenario
from croprl.errors import ConfigError
from croprl.harness import BASELINE_GRID, baseline_policy, evaluate_policy
from croprl.state import ObservationMask
from croprl.weather import DailyWeather, MonthlyClimate, WeatherModel


def flat_climate(p_wet_dry=0.3, p_wet_wet=0.5, rain_mm=12.0):
    return MonthlyClimate(
        p_wet_dry=(p_wet_dry,) * 12, p_wet_wet=(p_wet_wet,) * 12,
        rain_mm=(rain_mm,) * 12,
        tmax_mean=(25.0,) * 12, tmax_sd=(3.0,) * 12,
        tmin_mean=(12.0,) * 12, tmin_sd=(3.0,) * 12,
        wet_temp_drop=(2.0,) * 12,
        srad_mean=(20.0,) * 12, srad_sd=(4.0,) * 12,
        wet_srad_factor=(0.6,) * 12)


def test_each_day_draws_from_its_month_of_the_leap_calendar():
    # only February (days 32..60) can be wet, and it always is
    p = tuple(1.0 if m == 1 else 0.0 for m in range(12))
    climate = dataclasses.replace(flat_climate(), p_wet_dry=p, p_wet_wet=p)
    series = WeatherModel(climate, mode="stochastic").sample_year(4)
    wet_days = [doy for doy, day in enumerate(series, 1) if day.rain > 0.0]
    assert wet_days == list(range(32, 61))


def test_fixed_trace_ignores_the_episode_seed():
    model = WeatherModel(flat_climate(), mode="fixed-trace", seed=3)
    assert model.series_for_episode(1) is model.series_for_episode(2)
    assert model.series_for_episode(1) == model.sample_year(3)


def test_seeded_series_reproducible():
    model = WeatherModel(flat_climate(), seed=11)
    s1 = model.sample_year(42)
    s2 = model.sample_year(42)
    assert s1 == s2
    assert s1 != model.sample_year(43)


def test_a_year_is_drawn_once_and_shared_read_only():
    year = WeatherModel(flat_climate(), mode="stochastic").sample_year(42)
    # another model of the same climate gets the same tuple
    assert WeatherModel(flat_climate(), mode="stochastic").sample_year(42) \
        is year
    # a row of Python floats per day, neither of them writable
    assert type(year) is tuple and len(year) == 366
    assert all(type(day) is DailyWeather for day in year)
    assert {type(value) for day in year for value in day} == {float}
    with pytest.raises(TypeError):
        year[0] = year[1]
    with pytest.raises(AttributeError):
        year[0].rain = 1.0


def test_each_climate_and_last_day_has_its_own_year():
    climate, wetter = flat_climate(), flat_climate(rain_mm=20.0)
    full = WeatherModel(climate).sample_year(9)
    short = WeatherModel(climate, last_doy=298).sample_year(9)
    assert WeatherModel(climate, last_doy=298).sample_year(9) is short
    assert len(short) == 298 and len(full) == 366
    # the first 298 days make the same draws
    assert short == full[:298]
    other = WeatherModel(wetter).sample_year(9)
    assert other != full


def test_a_dose_sweep_draws_each_weather_year_once():
    scenario = iowa_scenario(weather_mode="stochastic")
    weather._draw_year.cache_clear()
    for dose in BASELINE_GRID:
        evaluate_policy(baseline_policy(dose), scenario,
                        ObservationMask.full(), n_episodes=4)
    assert weather._draw_year.cache_info().misses == 4


def test_degenerate_chain_never_rains():
    model = WeatherModel(flat_climate(p_wet_dry=0.0, p_wet_wet=0.0),
                         mode="stochastic", seed=0)
    assert all(day.rain == 0.0 for day in model.sample_year(5))


def test_tmax_never_below_tmin():
    model = WeatherModel(flat_climate(), seed=2)
    for seed in range(5):
        for day in model.sample_year(seed):
            assert day.tmax >= day.tmin
            assert day.rain >= 0.0
            assert day.srad > 0.0


def test_wet_day_rain_matches_exponential_mean():
    """Monte-Carlo check of the wet-day amount parameter (mean 12 mm)."""
    model = WeatherModel(flat_climate(rain_mm=12.0), mode="stochastic", seed=0)
    amounts = [day.rain for seed in range(80)
               for day in model.sample_year(seed) if day.rain > 0.0]
    assert len(amounts) > 10_000
    mean = float(np.mean(amounts))
    assert abs(mean - 12.0) / 12.0 < 0.05


def test_climate_validation():
    with pytest.raises(ConfigError):
        flat_climate(p_wet_dry=1.5)
    with pytest.raises(ConfigError):
        flat_climate(rain_mm=0.0)
    with pytest.raises(ConfigError):
        WeatherModel(flat_climate(), mode="sometimes")


def reference_year(climate, seed):
    """The generator as one draw per day into a preallocated array, with
    the month found per day: the form ``sample_year`` must reproduce."""
    months = np.repeat(np.arange(12),
                       (31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31))
    rng = np.random.default_rng(seed)
    out = np.empty((366, 4))
    wet = False
    for doy in range(1, 367):
        m = int(months[doy - 1])
        c = climate
        p_wet = c.p_wet_wet[m] if wet else c.p_wet_dry[m]
        wet = bool(rng.random() < p_wet)
        rain = float(rng.exponential(c.rain_mm[m])) if wet else 0.0
        tmax = c.tmax_mean[m] + c.tmax_sd[m] * rng.standard_normal()
        tmin = c.tmin_mean[m] + c.tmin_sd[m] * rng.standard_normal()
        if wet:
            tmax -= c.wet_temp_drop[m]
        if tmin > tmax:
            tmax, tmin = tmin, tmax
        srad = c.srad_mean[m] + c.srad_sd[m] * rng.standard_normal()
        if wet:
            srad *= c.wet_srad_factor[m]
        out[doy - 1] = (rain, max(srad, 0.1), tmax, tmin)
    return out


@pytest.mark.parametrize("location", ["iowa", "florida"])
def test_sample_year_matches_the_per_day_reference_bit_for_bit(location):
    climate = SCENARIO_PRESETS[location]().climate
    model = WeatherModel(climate, mode="stochastic")
    for seed in (0, 1, 17, 2**40 + 3):
        assert np.array(model.sample_year(seed)).tobytes() == \
            reference_year(climate, seed).tobytes()
