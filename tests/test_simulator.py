"""Process-model unit tests, including the independent mass-balance oracle.

The oracle sums inputs, outputs, and pool changes straight from the returned
state/flux dataclasses; it shares no arithmetic with the update code.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from croprl.simulator import (CropParams, CropState, GRAINFILL, MATURE,
                              NitrogenParams, SOWN, SoilProfile, VEGETATIVE,
                              advance_day, initial_soil_state,
                              phenology_update, thermal_time)
from croprl.weather import DailyWeather

PROFILE = SoilProfile(depth_cm=150.0, field_capacity=0.30, saturation=0.36,
                      wilting_point=0.13, drain_coef=0.4)
CROP = CropParams()
NITRO = NitrogenParams()
PLTPOP = 7.6


def soil_at_fc(nitrate=(10.0, 5.0, 5.0), organic=2000.0):
    return initial_soil_state(PROFILE, nitrate, organic)


def active_crop(**overrides):
    fields = dict(sown=True, gdd=400.0, istage=VEGETATIVE, vstage=8.0,
                  xlai=0.6, topwt=2000.0, grnwt=0.0, rtdep_cm=60.0,
                  plant_n=40.0, grain_n=0.0)
    fields.update(overrides)
    return CropState(**fields)


def water_mm(profile, soil):
    return sum(sw * profile.layer_depth_mm for sw in soil.sw)


def balance_residuals(profile, soil0, soil1, weather, n_applied, fluxes):
    """Independent accounting of one day; returns (water, nitrogen) rel errors."""
    w_in = weather.rain
    w_out = fluxes.runoff + fluxes.es + fluxes.drainage
    w_delta = water_mm(profile, soil1) - water_mm(profile, soil0)
    w_resid = abs(w_in - (w_delta + w_out))
    w_rel = w_resid / max(1.0, abs(w_in) + abs(w_delta) + abs(w_out))

    n_in = n_applied + fluxes.mineralized
    n_out = (fluxes.trnu + fluxes.tleachd + fluxes.tnoxd + fluxes.volatilized)
    n_delta = sum(soil1.nitrate) - sum(soil0.nitrate)
    n_resid = abs(n_in - (n_delta + n_out))
    n_rel = n_resid / max(1.0, abs(n_in) + abs(n_delta) + abs(n_out))
    return w_rel, n_rel


# ---------------------------------------------------------------------------
# phenology
# ---------------------------------------------------------------------------

def test_thermal_time_arithmetic():
    assert thermal_time(DailyWeather(0, 20, 30.0, 18.0), 8.0) == 16.0


def test_thermal_time_clamps_below_base():
    assert thermal_time(DailyWeather(0, 20, 10.0, 2.0), 8.0) == 0.0


def test_vstage_follows_phyllochron():
    # 215 degC d past emergence at 43 degC d per leaf -> five leaves
    crop = CropState(sown=True, gdd=CROP.gdd_emergence + 215.0 - 16.0,
                     istage=VEGETATIVE)
    crop, dtt = phenology_update(crop, DailyWeather(0, 20, 30.0, 18.0), CROP)
    assert dtt == 16.0
    assert crop.vstage == pytest.approx(215.0 / 43.0)
    assert crop.vstage == pytest.approx(5.0)


def test_unsown_crop_does_not_develop():
    crop = CropState()
    after, dtt = phenology_update(crop, DailyWeather(0, 20, 30.0, 18.0), CROP)
    assert after == crop
    assert dtt == 16.0


def test_istage_progresses_and_never_decreases():
    crop = CropState(sown=True, istage=SOWN)
    weather = DailyWeather(0.0, 20.0, 30.0, 18.0)  # dtt 16 per day
    stages = []
    for _ in range(150):
        crop, _ = phenology_update(crop, weather, CROP)
        stages.append(crop.istage)
    assert all(b >= a for a, b in zip(stages, stages[1:]))
    assert stages[-1] == MATURE


def test_vstage_nondecreasing_until_reproductive():
    crop = CropState(sown=True, istage=SOWN)
    weather = DailyWeather(0.0, 20.0, 28.0, 16.0)
    prev = 0.0
    while crop.istage < 3:
        crop, _ = phenology_update(crop, weather, CROP)
        assert crop.vstage >= prev
        prev = crop.vstage


# ---------------------------------------------------------------------------
# single-day cases
# ---------------------------------------------------------------------------

def test_no_radiation_no_growth():
    crop = active_crop()
    after, _, _, idx = advance_day(crop, soil_at_fc(),
                                   DailyWeather(0.0, 0.0, 25.0, 12.0),
                                   0.0, PROFILE, CROP, NITRO, PLTPOP)
    assert idx.growth == 0.0
    assert after.topwt == crop.topwt


def test_nothing_to_leach_without_nitrate():
    soil = initial_soil_state(PROFILE, (0.0, 0.0, 0.0), 0.0)
    _, _, fluxes, _ = advance_day(CropState(), soil,
                                  DailyWeather(60.0, 10.0, 22.0, 12.0),
                                  0.0, PROFILE, CROP, NITRO, PLTPOP)
    assert fluxes.tleachd == 0.0
    assert fluxes.drainage >= 0.0


def test_no_percolation_at_field_capacity_without_rain():
    _, _, fluxes, _ = advance_day(CropState(), soil_at_fc(),
                                  DailyWeather(0.0, 15.0, 25.0, 12.0),
                                  0.0, PROFILE, CROP, NITRO, PLTPOP)
    assert fluxes.drainage == 0.0
    assert fluxes.tleachd == 0.0


def test_volatilization_only_on_rain_free_days():
    _, _, dry, _ = advance_day(CropState(), soil_at_fc(),
                               DailyWeather(0.0, 15.0, 25.0, 12.0),
                               100.0, PROFILE, CROP, NITRO, PLTPOP)
    _, _, wet, _ = advance_day(CropState(), soil_at_fc(),
                               DailyWeather(5.0, 15.0, 25.0, 12.0),
                               100.0, PROFILE, CROP, NITRO, PLTPOP)
    assert dry.volatilized == pytest.approx(2.0)
    assert wet.volatilized == 0.0


def test_negative_application_rejected():
    from croprl.errors import ConfigError
    with pytest.raises(ConfigError):
        advance_day(CropState(), soil_at_fc(),
                    DailyWeather(0.0, 15.0, 25.0, 12.0),
                    -1.0, PROFILE, CROP, NITRO, PLTPOP)


def test_stress_indices_with_abundant_supplies():
    soil = initial_soil_state(PROFILE, (500.0, 500.0, 500.0), 2000.0)
    _, _, _, idx = advance_day(active_crop(), soil,
                               DailyWeather(0.0, 20.0, 28.0, 16.0),
                               0.0, PROFILE, CROP, NITRO, PLTPOP)
    assert idx.nstres == 1.0
    assert idx.swfac == 1.0


def test_nstres_zero_with_empty_soil_and_demand():
    soil = initial_soil_state(PROFILE, (0.0, 0.0, 0.0), 0.0)
    _, _, fluxes, idx = advance_day(active_crop(), soil,
                                    DailyWeather(0.0, 20.0, 28.0, 16.0),
                                    0.0, PROFILE, CROP, NITRO, PLTPOP)
    assert fluxes.trnu == 0.0
    assert idx.nstres == 0.0


@given(extra=st.floats(0.0, 200.0))
@settings(max_examples=40, deadline=None)
def test_more_fertilizer_never_lowers_end_of_day_nitrate(extra):
    weather = DailyWeather(10.0, 18.0, 27.0, 15.0)
    _, soil_lo, _, _ = advance_day(active_crop(), soil_at_fc(), weather,
                                   40.0, PROFILE, CROP, NITRO, PLTPOP)
    _, soil_hi, _, _ = advance_day(active_crop(), soil_at_fc(), weather,
                                   40.0 + extra, PROFILE, CROP, NITRO, PLTPOP)
    assert sum(soil_hi.nitrate) >= sum(soil_lo.nitrate) - 1e-12


@given(rain=st.floats(0.0, 80.0), srad=st.floats(0.0, 33.0),
       tmax=st.floats(-5.0, 40.0), napp=st.floats(0.0, 160.0))
@settings(max_examples=120, deadline=None)
def test_single_day_mass_balance_property(rain, srad, tmax, napp):
    weather = DailyWeather(rain, srad, tmax, tmax - 8.0)
    crop = active_crop()
    soil = soil_at_fc()
    _, soil1, fluxes, _ = advance_day(crop, soil, weather, napp, PROFILE,
                                      CROP, NITRO, PLTPOP)
    w_rel, n_rel = balance_residuals(PROFILE, soil, soil1, weather, napp,
                                     fluxes)
    assert w_rel < 1e-9
    assert n_rel < 1e-9
    assert min(soil1.sw) >= 0.0
    assert max(soil1.sw) <= PROFILE.saturation + 1e-12
    assert min(soil1.nitrate) >= -1e-12


def test_random_episode_mass_balance_closes():
    """160 random days accumulated: inputs - outputs - pool change ~ 0,
    for both nitrogen and water."""
    rng = np.random.default_rng(7)
    crop, soil = CropState(sown=True, istage=SOWN), soil_at_fc()
    n_in = n_out = 0.0
    w_in = w_out = 0.0
    n0 = sum(soil.nitrate)
    w0 = water_mm(PROFILE, soil)
    for _ in range(160):
        tmin = float(rng.uniform(2, 15))
        weather = DailyWeather(float(rng.exponential(4.0)) if rng.random() < .4 else 0.0,
                               float(rng.uniform(5, 30)),
                               tmin + float(rng.uniform(0, 20)),
                               tmin)
        napp = float(rng.choice([0.0, 0.0, 40.0, 120.0]))
        crop, soil, fluxes, _ = advance_day(crop, soil, weather, napp,
                                            PROFILE, CROP, NITRO, PLTPOP)
        n_in += napp + fluxes.mineralized
        n_out += (fluxes.trnu + fluxes.tleachd + fluxes.tnoxd
                  + fluxes.volatilized)
        w_in += weather.rain
        w_out += fluxes.runoff + fluxes.es + fluxes.drainage
    assert abs(n_in - n_out - (sum(soil.nitrate) - n0)) \
        / max(1.0, n_in) < 1e-9
    assert abs(w_in - w_out - (water_mm(PROFILE, soil) - w0)) \
        / max(1.0, w_in) < 1e-9
