"""Process-model unit tests, including the independent mass-balance oracle.

The oracle sums inputs, outputs, and pool changes straight from the returned
state/flux records; it shares no arithmetic with the update code.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from croprl.errors import ConfigError
from croprl.reward import RewardBreakdown
from croprl import simulator
from croprl.simulator import (CropParams, CropState, DailyFluxes, FLOWERING,
                              GRAINFILL, GrowthIndices, MATURE, SOWN,
                              SoilProfile, SoilState, VEGETATIVE, advance_day,
                              initial_soil_state, thermal_time)
from croprl.state import FIELD_ORDER, StateVector
from croprl.weather import DailyWeather

PROFILE = SoilProfile(depth_cm=150.0, field_capacity=0.30, saturation=0.36,
                      wilting_point=0.13, drain_coef=0.4)
CROP = CropParams()
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
    return sum(sw * (profile.depth_cm / profile.n_layers * 10.0)
               for sw in soil.sw)


def one_day(crop, weather, soil=None):
    """advance_day without fertilizer; returns (crop, soil, indices)."""
    crop, soil, _, indices = advance_day(crop, soil or soil_at_fc(), weather,
                                         0.0, PROFILE, CROP, PLTPOP)
    return crop, soil, indices


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
# day records
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("record", [
    CropState(), soil_at_fc(), DailyFluxes(), GrowthIndices(),
    DailyWeather(0.0, 20.0, 30.0, 18.0), RewardBreakdown(1.0, 0.5, 0.25, 0.0),
    StateVector(*(float(i) for i in range(len(FIELD_ORDER)))),
], ids=lambda record: type(record).__name__)
def test_day_records_refuse_assignment(record):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.note = "a field no record has"
    assert getattr(record, name) == record[0]


def test_day_records_compare_by_value():
    assert CropState() == CropState()
    assert CropState(gdd=1.0) != CropState()
    assert CropState()._replace(sown=True, istage=SOWN) == CropState(
        sown=True, istage=SOWN)
    assert CropState(grnwt=200.0, grain_n=3.0).pcngrn == 3.0 / 200.0


# ---------------------------------------------------------------------------
# phenology
# ---------------------------------------------------------------------------

def test_thermal_time_arithmetic():
    assert thermal_time(DailyWeather(0, 20, 30.0, 18.0)) == 16.0


def test_thermal_time_clamps_below_base():
    assert thermal_time(DailyWeather(0, 20, 10.0, 2.0)) == 0.0


def test_vstage_follows_phyllochron():
    # 215 degC d past emergence at 43 degC d per leaf -> five leaves
    crop = CropState(sown=True, gdd=simulator.GDD_EMERGENCE + 215.0 - 16.0,
                     istage=VEGETATIVE)
    crop, _, idx = one_day(crop, DailyWeather(0, 20, 30.0, 18.0))
    assert idx.dtt == 16.0
    assert crop.vstage == pytest.approx(215.0 / 43.0)
    assert crop.vstage == pytest.approx(5.0)
    assert crop.xlai == crop.vstage * simulator.LEAF_AREA_PER_LEAF_M2 * PLTPOP


def test_unsown_crop_does_not_develop():
    after, _, idx = one_day(CropState(), DailyWeather(0, 20, 30.0, 18.0))
    assert after == CropState()
    assert idx.dtt == 16.0


def test_istage_progresses_and_never_decreases():
    crop, soil = CropState(sown=True, istage=SOWN), soil_at_fc()
    weather = DailyWeather(0.0, 20.0, 30.0, 18.0)  # dtt 16 per day
    stages = []
    for _ in range(150):
        crop, soil, _ = one_day(crop, weather, soil)
        stages.append(crop.istage)
    assert all(b >= a for a, b in zip(stages, stages[1:]))
    assert stages[-1] == MATURE
    assert crop.xlai == 0.0


def test_vstage_nondecreasing_until_reproductive():
    crop, soil = CropState(sown=True, istage=SOWN), soil_at_fc()
    weather = DailyWeather(0.0, 20.0, 28.0, 16.0)
    prev = 0.0
    while crop.istage < FLOWERING:
        crop, soil, _ = one_day(crop, weather, soil)
        assert crop.vstage >= prev
        prev = crop.vstage
    # the leaf count freezes once flowering starts
    crop, soil, _ = one_day(crop, weather, soil)
    assert crop.vstage == prev


def test_canopy_senesces_linearly_while_grain_fills():
    # halfway from grain fill to maturity, half the green leaf area is left
    mid = (CROP.gdd_grainfill + CROP.gdd_maturity) / 2.0 - 16.0
    crop = active_crop(gdd=mid, istage=GRAINFILL, vstage=18.0)
    after, _, _ = one_day(crop, DailyWeather(0, 20, 30.0, 18.0))
    assert after.istage == GRAINFILL
    assert after.xlai == pytest.approx(
        0.5 * 18.0 * simulator.LEAF_AREA_PER_LEAF_M2 * PLTPOP)


def test_roots_deepen_only_on_warm_days_down_to_the_profile():
    warm, cold = DailyWeather(0, 20, 30.0, 18.0), DailyWeather(0, 20, 9.0, 1.0)
    crop = active_crop(rtdep_cm=60.0)
    assert one_day(crop, warm)[0].rtdep_cm \
        == 60.0 + simulator.ROOT_GROWTH_CM_PER_DAY
    assert one_day(crop, cold)[0].rtdep_cm == 60.0
    deep = active_crop(rtdep_cm=PROFILE.depth_cm - 0.5)
    assert one_day(deep, warm)[0].rtdep_cm == PROFILE.depth_cm


# ---------------------------------------------------------------------------
# single-day cases
# ---------------------------------------------------------------------------

def test_no_radiation_no_growth():
    crop = active_crop()
    after, _, _, idx = advance_day(crop, soil_at_fc(),
                                   DailyWeather(0.0, 0.0, 25.0, 12.0),
                                   0.0, PROFILE, CROP, PLTPOP)
    assert idx.growth == 0.0
    assert after.topwt == crop.topwt


def test_nothing_to_leach_without_nitrate():
    soil = initial_soil_state(PROFILE, (0.0, 0.0, 0.0), 0.0)
    _, _, fluxes, _ = advance_day(CropState(), soil,
                                  DailyWeather(60.0, 10.0, 22.0, 12.0),
                                  0.0, PROFILE, CROP, PLTPOP)
    assert fluxes.tleachd == 0.0
    assert fluxes.drainage >= 0.0


def test_no_percolation_at_field_capacity_without_rain():
    _, _, fluxes, _ = advance_day(CropState(), soil_at_fc(),
                                  DailyWeather(0.0, 15.0, 25.0, 12.0),
                                  0.0, PROFILE, CROP, PLTPOP)
    assert fluxes.drainage == 0.0
    assert fluxes.tleachd == 0.0


def test_volatilization_only_on_rain_free_days():
    _, _, dry, _ = advance_day(CropState(), soil_at_fc(),
                               DailyWeather(0.0, 15.0, 25.0, 12.0),
                               100.0, PROFILE, CROP, PLTPOP)
    _, _, wet, _ = advance_day(CropState(), soil_at_fc(),
                               DailyWeather(5.0, 15.0, 25.0, 12.0),
                               100.0, PROFILE, CROP, PLTPOP)
    assert dry.volatilized == pytest.approx(2.0)
    assert wet.volatilized == 0.0


def test_negative_application_rejected():
    with pytest.raises(ConfigError):
        advance_day(CropState(), soil_at_fc(),
                    DailyWeather(0.0, 15.0, 25.0, 12.0),
                    -1.0, PROFILE, CROP, PLTPOP)


@pytest.mark.parametrize("n_applied", [float("nan"), float("inf")])
def test_non_finite_application_rejected(n_applied):
    """Before, NaN reached the top layer's nitrate and inf became NaN."""
    with pytest.raises(ConfigError, match="fertilizer application"):
        advance_day(CropState(), soil_at_fc(),
                    DailyWeather(0.0, 15.0, 25.0, 12.0),
                    n_applied, PROFILE, CROP, PLTPOP)


def test_stress_indices_with_abundant_supplies():
    soil = initial_soil_state(PROFILE, (500.0, 500.0, 500.0), 2000.0)
    _, _, _, idx = advance_day(active_crop(), soil,
                               DailyWeather(0.0, 20.0, 28.0, 16.0),
                               0.0, PROFILE, CROP, PLTPOP)
    assert idx.nstres == 1.0
    assert idx.swfac == 1.0


def test_nstres_zero_with_empty_soil_and_demand():
    soil = initial_soil_state(PROFILE, (0.0, 0.0, 0.0), 0.0)
    _, _, fluxes, idx = advance_day(active_crop(), soil,
                                    DailyWeather(0.0, 20.0, 28.0, 16.0),
                                    0.0, PROFILE, CROP, PLTPOP)
    assert fluxes.trnu == 0.0
    assert idx.nstres == 0.0


def digest(day) -> str:
    """sha256 of the repr of advance_day's four records: every bit shows."""
    return hashlib.sha256(repr(day).encode()).hexdigest()


def test_mineralization_is_capped_by_the_organic_pool():
    # a warm day supplies 0.05 * 2 ** 0.5 kg/ha, more than the pool holds
    day = advance_day(active_crop(), soil_at_fc(organic=0.03),
                      DailyWeather(0.0, 20.0, 30.0, 20.0), 0.0, PROFILE,
                      CROP, PLTPOP)
    assert day[2].mineralized == 0.03
    assert day[1].organic_n == 0.0
    assert digest(day) == ("3b6007fe4ead62adcac08117e5cc34de"
                           "ba1ed3ec3381d938643a245c8e94933f")


def test_grain_n_transfer_is_capped_by_plant_n(monkeypatch):
    # grain at 4% N asks for more than the empty plant takes up today; the
    # constant is read when advance_day runs
    monkeypatch.setattr(simulator, "GRAIN_N_CONC", 0.04)
    crop = active_crop(gdd=1000.0, istage=GRAINFILL, vstage=20.0, xlai=1.5,
                       grnwt=500.0, plant_n=0.0, grain_n=5.0)
    day = advance_day(crop, soil_at_fc(), DailyWeather(0.0, 20.0, 30.0, 20.0),
                      0.0, PROFILE, CROP, PLTPOP)
    new_crop, _, fluxes, idx = day
    assert 0.04 * simulator.GRAIN_FRACTION * idx.growth > fluxes.trnu > 0.0
    assert new_crop.plant_n == 0.0
    assert new_crop.grain_n == 5.0 + fluxes.trnu
    assert digest(day) == ("36ca65a28242ee30894f0b74f8dcfe33"
                           "df7aa38ff5885eeb1d134438c3a7c4c8")


def test_drainage_is_capped_by_the_space_in_the_layer_below():
    # a saturated top layer over one 0.5 mm short of saturation
    soil = SoilState((0.36, 0.359, 0.30), (10.0, 5.0, 5.0), 2000.0)
    weather = DailyWeather(0.0, 10.0, 25.0, 15.0)
    day = advance_day(active_crop(), soil, weather, 0.0, PROFILE, CROP, PLTPOP)
    _, soil1, fluxes, _ = day
    fc, sat = PROFILE.field_capacity, PROFILE.saturation
    # the top layer keeps more than its uncapped share of the excess ...
    assert soil1.sw[0] > fc + (1.0 - PROFILE.drain_coef) * (sat - fc)
    # ... and the layer below fills to saturation, then drains its own share
    assert soil1.sw[1] == pytest.approx(sat - PROFILE.drain_coef * (sat - fc),
                                        abs=1e-12)
    w_rel, n_rel = balance_residuals(PROFILE, soil, soil1, weather, 0.0,
                                     fluxes)
    assert w_rel < 1e-12 and n_rel < 1e-12
    assert digest(day) == ("485cb884845fc0d07efe46dea1a620c3"
                           "f3ce06b1410c78081404295243f19bdc")


@given(extra=st.floats(0.0, 200.0))
@settings(max_examples=40, deadline=None)
def test_more_fertilizer_never_lowers_end_of_day_nitrate(extra):
    weather = DailyWeather(10.0, 18.0, 27.0, 15.0)
    _, soil_lo, _, _ = advance_day(active_crop(), soil_at_fc(), weather,
                                   40.0, PROFILE, CROP, PLTPOP)
    _, soil_hi, _, _ = advance_day(active_crop(), soil_at_fc(), weather,
                                   40.0 + extra, PROFILE, CROP, PLTPOP)
    assert sum(soil_hi.nitrate) >= sum(soil_lo.nitrate) - 1e-12


@given(rain=st.floats(0.0, 80.0), srad=st.floats(0.0, 33.0),
       tmax=st.floats(-5.0, 40.0), napp=st.floats(0.0, 160.0))
@settings(max_examples=120, deadline=None)
def test_single_day_mass_balance_property(rain, srad, tmax, napp):
    weather = DailyWeather(rain, srad, tmax, tmax - 8.0)
    crop = active_crop()
    soil = soil_at_fc()
    _, soil1, fluxes, _ = advance_day(crop, soil, weather, napp, PROFILE,
                                      CROP, PLTPOP)
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
                                            PROFILE, CROP, PLTPOP)
        n_in += napp + fluxes.mineralized
        n_out += (fluxes.trnu + fluxes.tleachd + fluxes.tnoxd
                  + fluxes.volatilized)
        w_in += weather.rain
        w_out += fluxes.runoff + fluxes.es + fluxes.drainage
    assert abs(n_in - n_out - (sum(soil.nitrate) - n0)) \
        / max(1.0, n_in) < 1e-9
    assert abs(w_in - w_out - (water_mm(PROFILE, soil) - w0)) \
        / max(1.0, w_in) < 1e-9
