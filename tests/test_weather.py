import numpy as np
import pytest

from croprl.errors import ConfigError
from croprl.weather import (CLIMATE_COLUMNS, MonthlyClimate, WeatherModel,
                            load_climate_csv, load_preset_climate,
                            month_of_doy)


def flat_climate(p_wet_dry=0.3, p_wet_wet=0.5, rain_mm=12.0):
    return MonthlyClimate(
        p_wet_dry=(p_wet_dry,) * 12, p_wet_wet=(p_wet_wet,) * 12,
        rain_mm=(rain_mm,) * 12,
        tmax_mean=(25.0,) * 12, tmax_sd=(3.0,) * 12,
        tmin_mean=(12.0,) * 12, tmin_sd=(3.0,) * 12,
        wet_temp_drop=(2.0,) * 12,
        srad_mean=(20.0,) * 12, srad_sd=(4.0,) * 12,
        wet_srad_factor=(0.6,) * 12)


def test_month_lookup():
    assert month_of_doy(1) == 0
    assert month_of_doy(31) == 0
    assert month_of_doy(32) == 1
    assert month_of_doy(366) == 11
    with pytest.raises(ConfigError):
        month_of_doy(0)


def test_fixed_trace_same_day_is_identical():
    model = WeatherModel(flat_climate(), mode="fixed-trace", seed=3)
    a = model.weather_on(model.series_for_episode(1), 150)
    b = model.weather_on(model.series_for_episode(2), 150)
    assert a == b


def test_seeded_series_reproducible():
    model = WeatherModel(flat_climate(), seed=11)
    s1 = model.sample_year(42)
    s2 = model.sample_year(42)
    assert np.array_equal(s1, s2)
    assert not np.array_equal(s1, model.sample_year(43))


def test_degenerate_chain_never_rains():
    model = WeatherModel(flat_climate(p_wet_dry=0.0, p_wet_wet=0.0),
                         mode="stochastic", seed=0)
    series = model.sample_year(5)
    assert np.all(series[:, 0] == 0.0)


def test_tmax_never_below_tmin():
    model = WeatherModel(flat_climate(), seed=2)
    for seed in range(5):
        series = model.sample_year(seed)
        assert np.all(series[:, 2] >= series[:, 3])
        assert np.all(series[:, 0] >= 0.0)
        assert np.all(series[:, 1] > 0.0)


def test_wet_day_rain_matches_exponential_mean():
    """Monte-Carlo check of the wet-day amount parameter (mean 12 mm)."""
    model = WeatherModel(flat_climate(rain_mm=12.0), mode="stochastic", seed=0)
    rng = np.random.default_rng(99)
    amounts = []
    wet = False
    while len(amounts) < 10_000:
        w, wet = model.sample_day(182, rng, wet)
        if w.rain > 0:
            amounts.append(w.rain)
    mean = float(np.mean(amounts))
    assert abs(mean - 12.0) / 12.0 < 0.05


def test_climate_validation():
    with pytest.raises(ConfigError):
        flat_climate(p_wet_dry=1.5)
    with pytest.raises(ConfigError):
        flat_climate(rain_mm=0.0)
    with pytest.raises(ConfigError):
        WeatherModel(flat_climate(), mode="sometimes")


def test_climate_csv_round_trip(tmp_path):
    climate = flat_climate(rain_mm=1 / 3)
    rows = [",".join(CLIMATE_COLUMNS)]
    rows += [",".join([str(m + 1)] + [repr(getattr(climate, name)[m])
                                      for name in CLIMATE_COLUMNS[1:]])
             for m in range(12)]
    path = tmp_path / "c.csv"
    path.write_text("\n".join(rows) + "\n")
    assert load_climate_csv(path) == climate


def test_climate_csv_header_is_mandatory(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2,3\n")
    with pytest.raises(ConfigError):
        load_climate_csv(path)


def test_bundled_presets_load():
    for name in ("ames", "gainesville"):
        climate = load_preset_climate(name)
        assert len(climate.rain_mm) == 12
    with pytest.raises(ConfigError):
        load_preset_climate("atlantis")
