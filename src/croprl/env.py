"""Episodic daily-step nitrogen management environment.

One episode runs from the simulation start date to crop maturity, or to a
configured latest harvest date, or to DOY 366, the end of the weather table,
whichever comes first. Each step applies a fertilizer mass to the
current day, advances the process model by exactly one day, and returns the
day's record: the new state together with the decomposed reward. The
environment is deterministic given (config, seed, action sequence).

Conventions:

* Dates are day-of-year integers; the weather series is indexed by day of
  year, so a state's ``rain/srad/tmax/tmin`` are the forcing of the day the
  next step will simulate (the morning view of today's weather).
* Flux and stress fields (``tleachd``, ``nstres``, ...) describe the most
  recently simulated day; in the reset state fluxes are zero and the stress
  indices one.
* ``done`` turns true on the terminal step; the harvest reward uses the top
  weight reached on that step.
* With an action frequency ``f`` greater than one, requested amounts on
  off-schedule days are forced to zero (the day still advances).

A site's season dates, plant density, N threshold, monthly climate table,
soil column, the cultivar's thermal times to flowering, grain fill and
maturity, and DQN's per-episode exploration decay belong to its preset
(``iowa_scenario``, ``florida_scenario``): no config key sets them. The
maize species coefficients and the soil process rates are ``simulator``
constants, the same at every site.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (ConfigError, EpisodeFinishedError, check_fields,
                     check_integer, check_real)
from .reward import RewardBreakdown, daily_reward
from .simulator import (CropParams, CropState, DailyFluxes, GrowthIndices,
                        SoilProfile, SOWN, MATURE, advance_day,
                        initial_soil_state, thermal_time)
from .state import StateVector
from .weather import MONTH_LENGTHS, WEATHER_MODES, MonthlyClimate, WeatherModel

#: Discrete fertilizer amounts available to the agents, kg/ha.
DISCRETE_ACTIONS_KG: tuple[float, ...] = (0.0, 40.0, 80.0, 120.0, 160.0)
#: Largest dose one step accepts, kg/ha: well above any agronomic single
#: dose, and small enough that the daily arithmetic stays finite.
MAX_DOSE_KG = 1000.0
_tuple_new = tuple.__new__  # as in ``simulator``


def day_of_year(month: int, day: int) -> int:
    """1-based day of year in the fixed 366-day calendar used throughout."""
    if not 1 <= month <= 12 or not 1 <= day <= MONTH_LENGTHS[month - 1]:
        raise ConfigError(f"invalid calendar date {month}/{day}")
    return sum(MONTH_LENGTHS[: month - 1]) + day


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one site/season setup."""

    name: str
    start_doy: int
    planting_doy: int
    latest_harvest_doy: int | None
    soil: SoilProfile
    crop: CropParams
    climate: MonthlyClimate
    initial_nitrate: tuple[float, ...]
    initial_organic_n: float
    plant_density: float            # plants/m2
    n_threshold: float              # allowed total N input, kg/ha; inf: any
    epsilon_decay: float            # DQN's exploration rate factor per episode
    weather_mode: str = "fixed-trace"
    weather_seed: int = 0
    action_frequency: int = 1       # days between permitted applications

    def __post_init__(self):
        check_fields(self, start_doy="[1, 366]", planting_doy="[1, 366]",
                     latest_harvest_doy="[1, 366]", initial_nitrate="[0, inf)",
                     initial_organic_n="[0, inf)", plant_density="(0, inf)",
                     n_threshold="[0, inf]", epsilon_decay="(0, 1)",
                     weather_seed="[0, inf)",
                     action_frequency="[1, inf)")
        if self.planting_doy <= self.start_doy:
            raise ConfigError("planting date must come after simulation start")
        if self.latest_harvest_doy is not None \
                and self.latest_harvest_doy <= self.planting_doy:
            raise ConfigError("latest_harvest_doy must follow planting_doy")
        if len(self.initial_nitrate) != self.soil.n_layers:
            raise ConfigError("initial_nitrate must give one value per layer")
        if self.weather_mode not in WEATHER_MODES:
            raise ConfigError(f"unknown weather_mode {self.weather_mode!r}")


# A preset's climate table: one row per month from January, in the field
# order of MonthlyClimate (p_wet_dry, p_wet_wet, rain_mm, tmax_mean, tmax_sd,
# tmin_mean, tmin_sd, wet_temp_drop, srad_mean, srad_sd, wet_srad_factor).
# Hand-written approximations of central-Iowa and north-Florida climatology,
# adequate for exercising the simulator; not fitted to station records.
def iowa_scenario(**overrides) -> ScenarioConfig:
    """Central-Iowa maize season: spring start, bounded harvest window."""
    return ScenarioConfig(**dict(
        name="iowa",
        start_doy=day_of_year(4, 25),
        planting_doy=day_of_year(5, 27),
        latest_harvest_doy=day_of_year(10, 24),
        soil=SoilProfile(depth_cm=151.0, field_capacity=0.30, saturation=0.33,
                         wilting_point=0.13, drain_coef=0.30),
        crop=CropParams(gdd_flowering=1050.0, gdd_grainfill=1180.0,
                        gdd_maturity=1640.0),
        climate=MonthlyClimate(*zip(
            (0.15, 0.40, 4.0, -2.0, 5.0, -13.0, 5.0, 2.0, 6.5, 2.0, 0.55),
            (0.16, 0.40, 5.0, 1.0, 5.0, -10.0, 5.0, 2.0, 9.5, 2.5, 0.55),
            (0.20, 0.45, 7.0, 9.0, 5.0, -3.0, 4.5, 2.5, 13.0, 3.5, 0.55),
            (0.24, 0.48, 9.0, 17.0, 4.5, 3.0, 4.0, 3.0, 17.0, 4.5, 0.55),
            (0.27, 0.50, 11.5, 23.0, 4.0, 10.0, 3.5, 3.0, 20.5, 5.0, 0.55),
            (0.27, 0.52, 14.0, 28.0, 3.5, 15.5, 3.0, 3.5, 23.0, 5.0, 0.55),
            (0.22, 0.48, 13.0, 30.0, 3.0, 18.0, 2.5, 3.5, 22.5, 4.5, 0.55),
            (0.22, 0.48, 12.5, 29.0, 3.0, 17.0, 2.5, 3.5, 20.0, 4.5, 0.55),
            (0.20, 0.45, 10.0, 25.0, 3.5, 12.0, 3.0, 3.0, 16.0, 4.0, 0.55),
            (0.18, 0.42, 8.0, 18.0, 4.0, 5.0, 3.5, 2.5, 11.5, 3.0, 0.55),
            (0.17, 0.42, 6.0, 8.0, 4.5, -1.5, 4.0, 2.0, 7.0, 2.0, 0.55),
            (0.16, 0.40, 4.5, 0.0, 5.0, -9.0, 4.5, 2.0, 5.5, 1.5, 0.55),
        )),
        initial_nitrate=(8.0, 4.0, 3.0),
        initial_organic_n=2500.0,
        plant_density=7.6,
        n_threshold=240.0,
        epsilon_decay=0.992,
    ) | overrides)


def florida_scenario(**overrides) -> ScenarioConfig:
    """North-Florida maize season: sandy soil, rain-fed, open harvest."""
    return ScenarioConfig(**dict(
        name="florida",
        start_doy=day_of_year(1, 30),
        planting_doy=day_of_year(2, 26),
        latest_harvest_doy=None,
        soil=SoilProfile(depth_cm=180.0, field_capacity=0.12, saturation=0.38,
                         wilting_point=0.045, drain_coef=0.85),
        crop=CropParams(gdd_flowering=1100.0, gdd_grainfill=1250.0,
                        gdd_maturity=1750.0),
        climate=MonthlyClimate(*zip(
            (0.18, 0.45, 9.0, 19.0, 4.5, 6.0, 4.5, 2.0, 11.0, 3.0, 0.60),
            (0.18, 0.45, 10.0, 21.0, 4.5, 8.0, 4.5, 2.0, 14.0, 3.5, 0.60),
            (0.20, 0.45, 12.0, 24.5, 4.0, 11.0, 4.0, 2.5, 19.0, 4.0, 0.60),
            (0.18, 0.44, 13.0, 27.5, 3.5, 14.0, 3.5, 2.5, 23.0, 4.5, 0.60),
            (0.17, 0.44, 14.0, 31.0, 3.0, 18.0, 3.0, 2.5, 24.0, 4.5, 0.60),
            (0.38, 0.55, 14.5, 33.0, 2.5, 21.5, 2.0, 3.0, 22.0, 4.5, 0.65),
            (0.42, 0.58, 13.5, 33.5, 2.0, 22.5, 1.8, 3.0, 21.0, 4.0, 0.65),
            (0.40, 0.56, 13.5, 33.0, 2.0, 22.5, 1.8, 3.0, 20.0, 4.0, 0.65),
            (0.30, 0.52, 12.0, 31.5, 2.5, 21.0, 2.2, 2.5, 17.5, 4.0, 0.60),
            (0.20, 0.45, 9.0, 28.0, 3.0, 16.0, 3.0, 2.5, 15.0, 3.5, 0.60),
            (0.16, 0.42, 8.0, 24.0, 3.5, 11.0, 3.5, 2.0, 12.0, 3.0, 0.60),
            (0.16, 0.42, 8.5, 20.5, 4.0, 7.5, 4.0, 2.0, 10.5, 3.0, 0.60),
        )),
        initial_nitrate=(6.0, 3.0, 2.0),
        initial_organic_n=2000.0,
        plant_density=7.2,
        n_threshold=160.0,
        epsilon_decay=0.994,
    ) | overrides)


SCENARIO_PRESETS = {"iowa": iowa_scenario, "florida": florida_scenario}


class DayRecord(NamedTuple):
    """One day of the episode log; ``as_dict`` gives its JSON-lines form."""

    dap: int
    action_requested: float
    action_applied: float
    reward: float
    breakdown: RewardBreakdown
    state: StateVector

    def as_dict(self) -> dict:
        return {**self._asdict(), "breakdown": self.breakdown._asdict(),
                "state": self.state._asdict()}


class NitrogenEnv:
    """Single-owner episodic environment; run one instance per trial."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self._done = True
        # the latest date of a terminal state, whose weather is the last an
        # episode reads; the weather table ends on DOY 366, so none wraps it
        self._last_doy = config.latest_harvest_doy or 366
        self.weather_model = WeatherModel(config.climate, config.weather_mode,
                                          config.weather_seed, self._last_doy)
        self.records: list[DayRecord] = []

    # -- episode control ----------------------------------------------------

    def reset(self, seed: int = 0) -> StateVector:
        """Start a fresh episode; identical (config, seed) gives identical state."""
        check_integer(seed, "episode seed")
        cfg = self.config
        episode_seed = np.random.SeedSequence(
            [cfg.weather_seed, int(seed)]).generate_state(1)[0]
        self._weather_rows = self.weather_model.series_for_episode(
            int(episode_seed))
        self._crop = CropState()
        self._soil = initial_soil_state(cfg.soil, cfg.initial_nitrate,
                                        cfg.initial_organic_n)
        self._day = 0
        self._cumsumfert = self._cleach = self._cnox = 0.0
        self._wtnup = self._totaml = 0.0
        self._done = False
        self.records = []
        return self._build_state(DailyFluxes(), GrowthIndices())

    def step(self, dose: float) -> DayRecord:
        """Apply ``dose`` kg/ha of fertilizer to the current day, advance the
        simulation, and return the day's record (also appended to
        ``records``). A dose that is not a real number in [0, MAX_DOSE_KG]
        (a bool or a string is not one) raises ConfigError, a ValueError."""
        if self._done:
            raise EpisodeFinishedError("episode is finished; call reset()")
        requested = check_real(dose, "fertilizer dose", 0.0, MAX_DOSE_KG)

        cfg = self.config
        applied = requested if self._day % cfg.action_frequency == 0 else 0.0

        date = cfg.start_doy + self._day
        if date >= cfg.planting_doy and not self._crop.sown:
            self._crop = self._crop._replace(sown=True, istage=SOWN)

        self._crop, self._soil, fluxes, indices = advance_day(
            self._crop, self._soil, self._weather, applied, cfg.soil,
            cfg.crop, cfg.plant_density)

        self._day += 1
        self._cumsumfert += applied
        self._cleach += fluxes.tleachd
        self._cnox += fluxes.tnoxd
        self._wtnup += fluxes.trnu
        self._totaml += fluxes.volatilized

        self._done = (self._crop.istage >= MATURE
                      or cfg.start_doy + self._day >= self._last_doy)

        breakdown = daily_reward(applied, fluxes.tleachd, self._cumsumfert,
                                 self._done, self._crop.topwt, cfg.n_threshold)
        # the C tuple constructor, in field order: it skips the Python frame
        # of NamedTuple's __new__ but does not count the values, which
        # test_day_record_fields_and_log_keys_keep_their_order does
        record = _tuple_new(DayRecord, (self._day - 1, requested, applied,
                                        breakdown.total, breakdown,
                                        self._build_state(fluxes, indices)))
        self.records.append(record)
        return record

    # -- views ---------------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._done

    @property
    def n_layers(self) -> int:
        return self.config.soil.n_layers

    # -- internals -----------------------------------------------------------

    def _build_state(self, fluxes: DailyFluxes,
                     indices: GrowthIndices) -> StateVector:
        """The state after ``fluxes`` and ``indices``; it also fetches the
        weather of the day the next step simulates."""
        cfg = self.config
        self._weather = weather = self._weather_rows[
            cfg.start_doy + self._day - 1]
        crop, soil = self._crop, self._soil
        # the C tuple constructor, in FIELD_ORDER, as for the DayRecord
        return _tuple_new(StateVector, (
            self._cumsumfert,                        # cumsumfert
            self._day,                               # dap
            thermal_time(weather),                   # dtt
            crop.istage,                             # istage
            crop.vstage,                             # vstage
            cfg.plant_density,                       # pltpop
            weather.rain,                            # rain
            weather.srad,                            # srad
            weather.tmax,                            # tmax
            weather.tmin,                            # tmin
            indices.nstres,                          # nstres
            crop.pcngrn,                             # pcngrn
            indices.swfac,                           # swfac
            fluxes.tleachd,                          # tleachd
            crop.grnwt,                              # grnwt
            self._cleach,                            # cleach
            self._cnox,                              # cnox
            fluxes.tnoxd,                            # tnoxd
            fluxes.trnu,                             # trnu
            self._wtnup,                             # wtnup
            crop.xlai,                               # xlai
            crop.topwt,                              # topwt
            fluxes.es,                               # es
            fluxes.runoff,                           # runoff
            cfg.soil.depth_cm,                       # wtdep
            crop.rtdep_cm,                           # rtdep
            self._totaml,                            # totaml
            soil.sw,                                 # sw
        ))
