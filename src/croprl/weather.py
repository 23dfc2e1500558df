"""Seedable daily weather generation.

Weather follows the classic two-part daily generator design: rain occurrence
is a first-order Markov chain (wet/dry, monthly transition probabilities),
wet-day amounts are exponential, and temperature/radiation are normal draws
around monthly means with a fixed depression on wet days. Parameters are
monthly; the bundled presets are CSV tables read by ``load_climate_csv``.

Two modes:

* ``fixed-trace`` (default): one 366-day series is generated from the model
  seed and reused for every episode, so the environment is deterministic.
* ``stochastic``: a fresh series is sampled per episode from a caller seed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ConfigError

CLIMATE_COLUMNS = (
    "month",
    "p_wet_dry",
    "p_wet_wet",
    "rain_mm",
    "tmax_mean",
    "tmax_sd",
    "tmin_mean",
    "tmin_sd",
    "wet_temp_drop",
    "srad_mean",
    "srad_sd",
    "wet_srad_factor",
)

# day-of-year -> month lookup for a 366-day (leap-layout) year
MONTH_LENGTHS = (31, 29, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)
_DOY_MONTH = np.repeat(np.arange(12), MONTH_LENGTHS)


def month_of_doy(day_of_year: int) -> int:
    """0-based month index for a 1-based day of year."""
    if not 1 <= day_of_year <= 366:
        raise ConfigError(f"day_of_year out of range: {day_of_year}")
    return int(_DOY_MONTH[day_of_year - 1])


@dataclass(frozen=True)
class DailyWeather:
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
        for name in ("p_wet_dry", "p_wet_wet"):
            if any(not 0.0 <= p <= 1.0 for p in getattr(self, name)):
                raise ConfigError(f"{name} must lie in [0, 1]")
        for name in ("rain_mm", "tmax_sd", "tmin_sd", "srad_mean", "srad_sd"):
            if any(v <= 0.0 for v in getattr(self, name)):
                raise ConfigError(f"{name} entries must be positive")
        if any(not 0.0 <= f <= 1.0 for f in self.wet_srad_factor):
            raise ConfigError("wet_srad_factor must lie in [0, 1]")
        for name in self.__dataclass_fields__:
            if len(getattr(self, name)) != 12:
                raise ConfigError(f"{name} needs 12 monthly entries")


class WeatherModel:
    """Daily weather source for one location.

    In fixed-trace mode the 366-day series derived from ``seed`` is built
    lazily once and then indexed; ``series_for_episode`` ignores the episode
    seed. In stochastic mode each call to ``series_for_episode`` samples a
    fresh year.
    """

    def __init__(self, climate: MonthlyClimate, mode: str = "fixed-trace",
                 seed: int = 0):
        if mode not in ("fixed-trace", "stochastic"):
            raise ConfigError(f"unknown weather mode: {mode!r}")
        self.climate = climate
        self.mode = mode
        self.seed = int(seed)
        self._trace: np.ndarray | None = None

    def sample_day(self, day_of_year: int, rng: np.random.Generator,
                   prev_wet: bool) -> tuple[DailyWeather, bool]:
        """Draw one day; returns the sample and the new wet/dry chain state."""
        m = month_of_doy(day_of_year)
        c = self.climate
        p_wet = c.p_wet_wet[m] if prev_wet else c.p_wet_dry[m]
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
        srad = max(srad, 0.1)

        return DailyWeather(rain, float(srad), float(tmax), float(tmin)), wet

    def sample_year(self, seed: int) -> np.ndarray:
        """Sample a full 366-day series; rows are (rain, srad, tmax, tmin)."""
        rng = np.random.default_rng(seed)
        out = np.empty((366, 4))
        wet = False
        for doy in range(1, 367):
            w, wet = self.sample_day(doy, rng, wet)
            out[doy - 1] = (w.rain, w.srad, w.tmax, w.tmin)
        return out

    def fixed_trace(self) -> np.ndarray:
        if self._trace is None:
            self._trace = self.sample_year(self.seed)
        return self._trace

    def series_for_episode(self, episode_seed: int) -> np.ndarray:
        if self.mode == "fixed-trace":
            return self.fixed_trace()
        return self.sample_year(episode_seed)

    def weather_on(self, series: np.ndarray, day_of_year: int) -> DailyWeather:
        row = series[(day_of_year - 1) % 366]
        return DailyWeather(float(row[0]), float(row[1]), float(row[2]),
                            float(row[3]))


def load_climate_csv(path) -> MonthlyClimate:
    """Read a 12-row monthly parameter table.

    Header row is required and must match ``CLIMATE_COLUMNS`` exactly; rows
    must cover months 1..12 in order.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = tuple(next(reader))
        if header != CLIMATE_COLUMNS:
            raise ConfigError(
                f"climate CSV header mismatch: expected {CLIMATE_COLUMNS}, "
                f"got {header}")
        rows = [row for row in reader if row]
    if len(rows) != 12 or [int(r[0]) for r in rows] != list(range(1, 13)):
        raise ConfigError("climate CSV must list months 1..12 in order")
    cols = list(zip(*rows))
    values = {name: tuple(float(v) for v in cols[i])
              for i, name in enumerate(CLIMATE_COLUMNS) if name != "month"}
    return MonthlyClimate(**values)


def load_preset_climate(name: str) -> MonthlyClimate:
    """Load one of the bundled monthly tables ('ames' or 'gainesville').

    The bundled tables are hand-written approximations of central-Iowa and
    north-Florida climatology, adequate for exercising the simulator; they
    are not fitted to station records.
    """
    ref = resources.files("croprl.data").joinpath(f"{name}.csv")
    if not ref.is_file():
        raise ConfigError(f"no bundled climate preset named {name!r}")
    with resources.as_file(ref) as path:
        return load_climate_csv(Path(path))
