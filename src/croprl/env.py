"""Episodic daily-step nitrogen management environment.

One episode runs from the simulation start date to crop maturity (or to a
configured latest harvest date). Each step applies a fertilizer mass to the
current day, advances the process model by exactly one day, and returns the
new state together with the decomposed reward. The environment is
deterministic given (config, seed, action sequence).

Conventions:

* Dates are day-of-year integers; the weather series is indexed by day of
  year, so a state's ``rain/srad/tmax/tmin`` are the forcing of the day the
  next step will simulate (the morning view of today's weather).
* Flux and stress fields (``tleachd``, ``nstres``, ...) describe the most
  recently simulated day; they are zero in the reset state.
* ``done`` is returned by the terminal step only; the harvest reward uses the
  top weight reached on that step.
* With an action frequency ``f`` greater than one, requested amounts on
  off-schedule days are forced to zero (the day still advances).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import ConfigError, EpisodeFinishedError
from .reward import RewardBreakdown, RewardConfig, daily_reward
from .simulator import (CropParams, CropState, NitrogenParams, SoilProfile,
                        SOWN, MATURE, advance_day, initial_soil_state,
                        thermal_time)
from .state import StateVector
from .weather import (MONTH_LENGTHS, MonthlyClimate, WeatherModel,
                      load_preset_climate)

#: Discrete fertilizer amounts available to the agents, kg/ha.
DISCRETE_ACTIONS_KG: tuple[float, ...] = (0.0, 40.0, 80.0, 120.0, 160.0)


def day_of_year(month: int, day: int) -> int:
    """1-based day of year in the fixed 366-day calendar used throughout."""
    if not 1 <= month <= 12 or not 1 <= day <= MONTH_LENGTHS[month - 1]:
        raise ConfigError(f"invalid calendar date {month}/{day}")
    return sum(MONTH_LENGTHS[: month - 1]) + day


@dataclass(frozen=True)
class StepResult:
    next_state: StateVector
    reward: float
    reward_breakdown: RewardBreakdown
    done: bool


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one site/season setup."""

    name: str
    start_doy: int
    planting_doy: int
    latest_harvest_doy: int | None
    soil: SoilProfile
    crop: CropParams
    nitro: NitrogenParams
    climate: MonthlyClimate
    initial_nitrate: tuple[float, ...]
    initial_organic_n: float
    plant_density: float            # plants/m2
    reward: RewardConfig
    irrigation: float = 0.0         # mm/d, fixed at zero in this study
    weather_mode: str = "fixed-trace"
    weather_seed: int = 0
    action_frequency: int = 1       # days between permitted applications

    def __post_init__(self):
        if self.planting_doy <= self.start_doy:
            raise ConfigError("planting date must come after simulation start")
        if self.latest_harvest_doy is not None \
                and self.latest_harvest_doy <= self.planting_doy:
            raise ConfigError("latest harvest must come after planting")
        if self.plant_density <= 0:
            raise ConfigError("plant density must be positive")
        if self.irrigation != 0.0:
            raise ConfigError("irrigation is fixed at zero")
        if self.action_frequency < 1:
            raise ConfigError("action frequency must be >= 1")


def iowa_scenario(**overrides) -> ScenarioConfig:
    """Central-Iowa maize season: spring start, bounded harvest window."""
    defaults = dict(
        name="iowa",
        start_doy=day_of_year(4, 25),
        planting_doy=day_of_year(5, 27),
        latest_harvest_doy=day_of_year(10, 24),
        soil=SoilProfile(depth_cm=151.0, field_capacity=0.30, saturation=0.33,
                         wilting_point=0.13, drain_coef=0.30),
        crop=CropParams(gdd_flowering=1050.0, gdd_grainfill=1180.0,
                        gdd_maturity=1640.0),
        nitro=NitrogenParams(),
        climate=load_preset_climate("ames"),
        initial_nitrate=(8.0, 4.0, 3.0),
        initial_organic_n=2500.0,
        plant_density=7.6,
        reward=RewardConfig(threshold=240.0),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def florida_scenario(**overrides) -> ScenarioConfig:
    """North-Florida maize season: sandy soil, no irrigation, open harvest."""
    defaults = dict(
        name="florida",
        start_doy=day_of_year(1, 30),
        planting_doy=day_of_year(2, 26),
        latest_harvest_doy=None,
        soil=SoilProfile(depth_cm=180.0, field_capacity=0.12, saturation=0.38,
                         wilting_point=0.045, drain_coef=0.85),
        crop=CropParams(gdd_flowering=1100.0, gdd_grainfill=1250.0,
                        gdd_maturity=1750.0),
        nitro=NitrogenParams(),
        climate=load_preset_climate("gainesville"),
        initial_nitrate=(6.0, 3.0, 2.0),
        initial_organic_n=2000.0,
        plant_density=7.2,
        reward=RewardConfig(threshold=160.0),
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


SCENARIO_PRESETS = {"iowa": iowa_scenario, "florida": florida_scenario}


@dataclass
class DayRecord:
    """One day of the episode log; ``as_dict`` gives its JSON-lines form."""

    dap: int
    action_requested: float
    action_applied: float
    reward: float
    breakdown: RewardBreakdown
    state: StateVector

    def as_dict(self) -> dict:
        return {"dap": self.dap, "action_requested": self.action_requested,
                "action_applied": self.action_applied, "reward": self.reward,
                "breakdown": asdict(self.breakdown),
                "state": self.state.as_dict()}


class NitrogenEnv:
    """Single-owner episodic environment; run one instance per trial."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.weather_model = WeatherModel(config.climate, config.weather_mode,
                                          config.weather_seed)
        self._series: np.ndarray | None = None
        self._state: StateVector | None = None
        self._done = True
        self.records: list[DayRecord] = []

    # -- episode control ----------------------------------------------------

    def reset(self, seed: int = 0) -> StateVector:
        """Start a fresh episode; identical (config, seed) gives identical state."""
        cfg = self.config
        episode_seed = np.random.SeedSequence(
            [cfg.weather_seed, int(seed)]).generate_state(1)[0]
        self._series = self.weather_model.series_for_episode(int(episode_seed))
        self._crop = CropState()
        self._soil = initial_soil_state(cfg.soil, cfg.initial_nitrate,
                                        cfg.initial_organic_n)
        self._day = 0
        self._cumsumfert = 0.0
        self._cleach = 0.0
        self._cnox = 0.0
        self._wtnup = 0.0
        self._totaml = 0.0
        self._done = False
        self.records = []
        self._state = self._build_state(fluxes=None, indices=None)
        return self._state

    def step(self, dose: float) -> StepResult:
        """Apply ``dose`` kg/ha of fertilizer to the current day and advance
        the simulation."""
        if self._done or self._state is None:
            raise EpisodeFinishedError("episode is finished; call reset()")
        requested = float(dose)
        if not 0.0 <= requested < math.inf:
            raise ValueError(
                f"fertilizer dose must be finite and nonnegative: {requested}")

        cfg = self.config
        applied = requested if self._day % cfg.action_frequency == 0 else 0.0

        weather = self._weather_on_day(self._day)
        date = cfg.start_doy + self._day
        if date >= cfg.planting_doy and not self._crop.sown:
            self._crop = replace(self._crop, sown=True, istage=SOWN)

        self._crop, self._soil, fluxes, indices = advance_day(
            self._crop, self._soil, weather, applied, cfg.soil, cfg.crop,
            cfg.nitro, cfg.plant_density)

        self._day += 1
        self._cumsumfert += applied
        self._cleach += fluxes.tleachd
        self._cnox += fluxes.tnoxd
        self._wtnup += fluxes.trnu
        self._totaml += fluxes.volatilized

        mature = self._crop.istage >= MATURE
        past_window = (cfg.latest_harvest_doy is not None
                       and cfg.start_doy + self._day >= cfg.latest_harvest_doy)
        self._done = mature or past_window

        breakdown = daily_reward(
            a_t=applied, tleachd=fluxes.tleachd,
            cumsumfert_incl_today=self._cumsumfert,
            is_harvest=self._done, y=self._crop.topwt, cfg=cfg.reward)

        self._state = self._build_state(fluxes, indices)
        self.records.append(DayRecord(
            dap=self._day - 1, action_requested=requested,
            action_applied=applied, reward=breakdown.total,
            breakdown=breakdown, state=self._state))
        return StepResult(self._state, breakdown.total, breakdown, self._done)

    # -- views ---------------------------------------------------------------

    @property
    def state(self) -> StateVector:
        if self._state is None:
            raise EpisodeFinishedError("environment not reset yet")
        return self._state

    @property
    def done(self) -> bool:
        return self._done

    @property
    def n_layers(self) -> int:
        return self.config.soil.n_layers

    # -- internals -----------------------------------------------------------

    def _weather_on_day(self, day_index: int):
        doy = self.config.start_doy + day_index
        return self.weather_model.weather_on(self._series, doy)

    def _build_state(self, fluxes, indices) -> StateVector:
        cfg = self.config
        weather = self._weather_on_day(self._day)
        crop, soil = self._crop, self._soil
        return StateVector(
            cumsumfert=self._cumsumfert,
            dap=self._day,
            dtt=thermal_time(weather, cfg.crop.t_base),
            istage=crop.istage,
            vstage=crop.vstage,
            pltpop=cfg.plant_density,
            rain=weather.rain,
            srad=weather.srad,
            tmax=weather.tmax,
            tmin=weather.tmin,
            nstres=indices.nstres if indices else 1.0,
            pcngrn=crop.pcngrn,
            swfac=indices.swfac if indices else 1.0,
            tleachd=fluxes.tleachd if fluxes else 0.0,
            grnwt=crop.grnwt,
            cleach=self._cleach,
            cnox=self._cnox,
            tnoxd=fluxes.tnoxd if fluxes else 0.0,
            trnu=fluxes.trnu if fluxes else 0.0,
            wtnup=self._wtnup,
            xlai=crop.xlai,
            topwt=crop.topwt,
            es=fluxes.es if fluxes else 0.0,
            runoff=fluxes.runoff if fluxes else 0.0,
            wtdep=cfg.soil.depth_cm,
            rtdep=crop.rtdep_cm,
            totaml=self._totaml,
            sw=soil.sw,
        )
