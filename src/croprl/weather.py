"""Seedable daily weather generation.

Weather follows the classic two-part daily generator design: rain occurrence
is a first-order Markov chain (wet/dry, monthly transition probabilities),
wet-day amounts are exponential, and temperature/radiation are normal draws
around monthly means with a fixed depression on wet days. Parameters are
monthly, one ``MonthlyClimate`` table per site; each site's preset in ``env``
holds its own table.

Two modes:

* ``fixed-trace`` (default): one series is generated from the model seed and
  reused for every episode, so the environment is deterministic.
* ``stochastic``: a fresh series is sampled per episode from a caller seed.

A year is a pure function of ``(climate, last_doy, seed)``: it is drawn once
per process, memoized under that key, at most 256 years, and shared as an
immutable tuple of ``DailyWeather`` rows, one per day from January 1st.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, check_fields

WEATHER_MODES = ("fixed-trace", "stochastic")
# 0-based month of each day of a 366-day (leap-layout) year
MONTH_LENGTHS = (31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
_DOY_MONTH = tuple(m for m, n in enumerate(MONTH_LENGTHS) for _ in range(n))
YEAR_MEMO_SIZE = 256  # years; a 366-day tuple is about 60 KB, so about 16 MB


class DailyWeather(NamedTuple):
    rain: float  # mm/d
    srad: float  # MJ/m2/d
    tmax: float  # degC
    tmin: float  # degC


@dataclass(frozen=True)
class MonthlyClimate:
    """Twelve-month parameter table for the generator."""

    p_wet_dry: tuple[float, ...]
    p_wet_wet: tuple[float, ...]
    rain_mm: tuple[float, ...]  # mean wet-day amount (exponential scale)
    tmax_mean: tuple[float, ...]
    tmax_sd: tuple[float, ...]
    tmin_mean: tuple[float, ...]
    tmin_sd: tuple[float, ...]
    wet_temp_drop: tuple[float, ...]
    srad_mean: tuple[float, ...]
    srad_sd: tuple[float, ...]
    wet_srad_factor: tuple[float, ...]

    def __post_init__(self):
        check_fields(self, p_wet_dry="[0, 1]", p_wet_wet="[0, 1]",
                     wet_srad_factor="[0, 1]", rain_mm="(0, inf)",
                     tmax_sd="(0, inf)", tmin_sd="(0, inf)",
                     srad_mean="(0, inf)", srad_sd="(0, inf)")
        for name in self.__dataclass_fields__:
            if len(getattr(self, name)) != 12:
                raise ConfigError(f"{name} needs 12 monthly entries")


class WeatherModel:
    """Daily weather source for one location.

    In fixed-trace mode the series derived from ``seed`` is built lazily
    once and then indexed; ``series_for_episode`` ignores the episode seed.
    In stochastic mode ``series_for_episode`` returns the year of its episode
    seed. A series ends on ``last_doy``, the last day an episode can read.
    """

    def __init__(self, climate: MonthlyClimate, mode: str = "fixed-trace",
                 seed: int = 0, last_doy: int = 366):
        if mode not in WEATHER_MODES:
            raise ConfigError(f"unknown weather mode: {mode!r}")
        self.climate = climate
        self.mode = mode
        self.seed = int(seed)
        self.last_doy = last_doy
        self._trace: tuple[DailyWeather, ...] | None = None

    def sample_year(self, seed: int) -> tuple[DailyWeather, ...]:
        """Days 1 to ``last_doy`` drawn from ``seed``: memoized per
        ``(climate, last_doy, seed)``, at most 256 years, and immutable."""
        return _draw_year(self.climate, self.last_doy, seed)

    def series_for_episode(self, episode_seed: int
                           ) -> tuple[DailyWeather, ...]:
        if self.mode == "stochastic":
            return self.sample_year(episode_seed)
        if self._trace is None:
            self._trace = self.sample_year(self.seed)
        return self._trace


@lru_cache(maxsize=YEAR_MEMO_SIZE)
def _draw_year(climate: MonthlyClimate, last_doy: int, seed: int):
    """Sample days 1 to ``last_doy`` as ``DailyWeather`` rows of floats.

    Rain occurrence follows the wet/dry chain from a dry day before
    January 1st. Each day draws, in order: a uniform for occurrence, an
    exponential amount on wet days, then normals for tmax, tmin and srad.
    """
    rng = np.random.default_rng(seed)
    uniform, exponential, normal = (rng.random, rng.exponential,
                                    rng.standard_normal)
    # one row of parameters per month, in field order
    months = list(zip(*(getattr(climate, f.name)
                        for f in fields(MonthlyClimate))))
    rows = []
    wet = False
    for m in _DOY_MONTH[:last_doy]:
        (p_wet_dry, p_wet_wet, rain_mm, tmax_mean, tmax_sd, tmin_mean,
         tmin_sd, wet_temp_drop, srad_mean, srad_sd,
         wet_srad_factor) = months[m]
        wet = uniform() < (p_wet_wet if wet else p_wet_dry)
        rain = exponential(rain_mm) if wet else 0.0
        tmax = tmax_mean + tmax_sd * normal()
        tmin = tmin_mean + tmin_sd * normal()
        if wet:
            tmax -= wet_temp_drop
        if tmin > tmax:
            tmax, tmin = tmin, tmax
        srad = srad_mean + srad_sd * normal()
        if wet:
            srad *= wet_srad_factor
        rows.append(DailyWeather(rain, max(srad, 0.1), tmax, tmin))
    return tuple(rows)

