"""Surrogate daily process model of maize growth, soil water, and nitrogen.

This is deliberately a minimal desk-scale model, not a crop-physiology
reimplementation: each process keeps the simplest form that still couples
yield, nitrogen input, leaching, and stress the way a field does.

Daily update order (``advance_day``):

1. fertilizer addition, with an ammonia volatilization split on rain-free days
2. water balance: runoff, infiltration, evapotranspiration, drainage cascade
3. mineralization of the organic pool into surface-layer nitrate
4. nitrate leaching carried by the drainage of each layer (mixing-cell form)
5. denitrification in layers near saturation
6. phenology: thermal time, growth stage, leaf number, root depth, canopy
7. potential biomass from intercepted radiation
8. nitrogen uptake, stress indices, and realized growth

A site sets two things, in its preset: the soil column (``SoilProfile``)
and the cultivar's thermal times to flowering, grain fill and maturity
(``CropParams``). Everything else is a module constant, in the block below
the stage codes: the maize species coefficients (base temperature,
phyllochron, radiation use, N demand by stage, ...) and the soil water and
nitrogen process rates. ``advance_day`` reads them when it runs, so a probe
can monkeypatch one.

Biomass units are kg/ha of dry matter, water is tracked volumetrically per
layer (converted to mm internally), nitrogen pools are kg/ha. The model is
pure-functional: ``advance_day`` consumes and returns immutable state, so
independent simulators can run in parallel. Within the day it works on
local floats and per-layer lists, and it builds each returned record once
with the C tuple constructor, ``tuple.__new__(Cls, values)`` in field order:
the ``__new__`` that ``NamedTuple`` generates is a Python frame around that
same call. Unlike it, ``tuple.__new__`` does not count the values, so
``test_day_record_fields_and_log_keys_keep_their_order`` checks the arity.
Every clamp is a conditional expression, not a builtin call, which costs more:
``min(a, b)`` is ``b if b < a else a`` and ``max(0.0, z)`` is
``z if z > 0.0 else 0.0``, or ``x - y if x > y else 0.0`` when ``z = x - y``.
Each returns the builtin's float, ties and NaNs included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigError, check_fields
from .weather import DailyWeather

# growth-stage codes (istage)
PRESOWN = 0
SOWN = 1
VEGETATIVE = 2
FLOWERING = 3
GRAINFILL = 4
MATURE = 5

_ACTIVE_STAGES = (VEGETATIVE, FLOWERING, GRAINFILL)
_tuple_new = tuple.__new__  # builds the day's records; see above

# maize species coefficients and soil process rates; no site sets them
T_BASE = 8.0                    # degC
PHYLLOCHRON = 43.0              # degC d per leaf
MAX_LEAVES = 20.0
GDD_EMERGENCE = 60.0            # degC d from sowing
RUE_G_PER_MJ = 3.3
K_EXTINCTION = 0.6
LEAF_AREA_PER_LEAF_M2 = 0.010
GRAIN_FRACTION = 0.5            # share of new biomass to grain after flowering
GRAIN_N_CONC = 0.0125
ROOT_GROWTH_CM_PER_DAY = 1.5
# nitrogen demand per unit potential growth, by istage
DEMAND_CONCENTRATION = (0.0, 0.0, 0.020, 0.016, 0.011, 0.0)
RUNOFF_THRESHOLD_MM = 40.0
VOLATILIZATION_FRAC = 0.02      # of surface application, rain-free days
MINERALIZATION_RATE = 0.05      # kg/ha/d at reference temperature
Q10 = 2.0
T_REFERENCE = 20.0
DENITRIFICATION_FRAC = 0.02     # of layer nitrate per saturated day
DENITRIFICATION_SW_FRAC = 0.95  # of saturation
ET_COEF = 0.6 / 2.45            # mm of water per MJ/m2 of radiation
EVAP_FLOOR_FRAC = 0.5           # air-dry bound as fraction of wilting point


@dataclass(frozen=True)
class SoilProfile:
    """Static description of the soil column (uniform properties per layer)."""

    depth_cm: float
    field_capacity: float          # cm3/cm3
    saturation: float
    wilting_point: float
    drain_coef: float              # fraction of above-capacity water draining per day
    n_layers: int = 3

    def __post_init__(self):
        check_fields(self, depth_cm="(0, inf)", n_layers="[1, inf)",
                     wilting_point="(0, inf)", saturation="(0, 1]",
                     drain_coef="[0, 1]")
        if not self.wilting_point < self.field_capacity < self.saturation:
            raise ConfigError("need wilting_point < field_capacity < saturation")


@dataclass(frozen=True)
class CropParams:
    """The cultivar: thermal time from sowing to each stage, degC d."""

    gdd_flowering: float
    gdd_grainfill: float
    gdd_maturity: float

    def __post_init__(self):
        check_fields(self)
        if not (GDD_EMERGENCE < self.gdd_flowering < self.gdd_grainfill
                < self.gdd_maturity):
            raise ConfigError("need GDD_EMERGENCE < gdd_flowering < "
                              "gdd_grainfill < gdd_maturity")


class SoilState(NamedTuple):
    sw: tuple[float, ...]        # volumetric water per layer
    nitrate: tuple[float, ...]   # kg/ha per layer
    organic_n: float             # kg/ha mineralizable pool


class CropState(NamedTuple):
    sown: bool = False
    gdd: float = 0.0
    istage: int = PRESOWN
    vstage: float = 0.0
    xlai: float = 0.0
    topwt: float = 0.0
    grnwt: float = 0.0
    rtdep_cm: float = 0.0
    plant_n: float = 0.0
    grain_n: float = 0.0

    @property
    def pcngrn(self) -> float:
        return self.grain_n / self.grnwt if self.grnwt > 0 else 0.0


class DailyFluxes(NamedTuple):
    tleachd: float = 0.0      # kg/ha nitrate leached below the profile
    tnoxd: float = 0.0        # kg/ha denitrified
    trnu: float = 0.0         # kg/ha crop uptake
    volatilized: float = 0.0  # kg/ha ammonia loss
    mineralized: float = 0.0  # kg/ha organic -> nitrate
    es: float = 0.0           # mm evapotranspiration (soil evap + crop water use)
    runoff: float = 0.0       # mm
    drainage: float = 0.0     # mm leaving the bottom of the profile


class GrowthIndices(NamedTuple):
    dtt: float = 0.0
    nstres: float = 1.0
    swfac: float = 1.0
    growth: float = 0.0  # realized biomass increment, kg/ha


def initial_soil_state(profile: SoilProfile, nitrate: tuple[float, ...],
                       organic_n: float) -> SoilState:
    """Every layer at field capacity, with the given nitrate and organic N."""
    return SoilState(sw=(profile.field_capacity,) * profile.n_layers,
                     nitrate=tuple(nitrate), organic_n=organic_n)


def thermal_time(weather: DailyWeather) -> float:
    tavg = (weather.tmax + weather.tmin) / 2.0
    return tavg - T_BASE if tavg > T_BASE else 0.0


def advance_day(crop: CropState, soil: SoilState, weather: DailyWeather,
                n_applied: float, profile: SoilProfile, params: CropParams,
                pltpop: float,
                ) -> tuple[CropState, SoilState, DailyFluxes, GrowthIndices]:
    """Run one day of the coupled soil/crop model.

    ``n_applied`` is the fertilizer mass reaching the surface today (kg/ha),
    finite and nonnegative. Returns the new crop and soil states plus the
    day's fluxes and indices.
    """
    if not 0.0 <= n_applied < math.inf:  # NaN fails the comparison too
        raise ConfigError("fertilizer application must be nonnegative")
    (sown, gdd, istage, vstage, xlai, topwt, grnwt, rtdep_cm, plant_n,
     grain_n) = crop
    rain, srad, tmax, tmin = weather
    n_layers = profile.n_layers
    thickness_cm = profile.depth_cm / n_layers
    layer_mm = thickness_cm * 10.0
    fc_mm = profile.field_capacity * layer_mm
    sat_mm = profile.saturation * layer_mm
    wp_mm = profile.wilting_point * layer_mm
    air_dry_mm = EVAP_FLOOR_FRAC * wp_mm
    drain_coef = profile.drain_coef

    water = [v * layer_mm for v in soil.sw]
    nitrate = list(soil.nitrate)

    # 1. fertilizer; a slice volatilizes if the surface stays dry today
    volatilized = VOLATILIZATION_FRAC * n_applied if rain == 0.0 else 0.0
    nitrate[0] += n_applied - volatilized

    # 2a. runoff and infiltration into the top layer
    runoff = rain - RUNOFF_THRESHOLD_MM if rain > RUNOFF_THRESHOLD_MM else 0.0
    infiltration = rain - runoff
    space = sat_mm - water[0]
    if infiltration > space:
        runoff += infiltration - space
        infiltration = space
    water[0] += infiltration

    # 2b. evapotranspiration, split by canopy cover (start-of-day canopy);
    # roots reach the share f, in [0, 1], of each layer above the root depth
    pet = ET_COEF * srad
    cover = 1.0 - math.exp(-K_EXTINCTION * xlai)
    pot_soil_evap = pet * (1.0 - cover)
    pot_transp = pet * cover if istage in _ACTIVE_STAGES else 0.0

    evaporable = water[0] - air_dry_mm if water[0] > air_dry_mm else 0.0
    soil_evap = evaporable if evaporable < pot_soil_evap else pot_soil_evap
    water[0] -= soil_evap

    avail = [(w - wp_mm if w > wp_mm else 0.0)
             * (0.0 if (f := (rtdep_cm - i * thickness_cm) / thickness_cm)
                < 0.0 else 1.0 if f > 1.0 else f)
             for i, w in enumerate(water)]
    avail_total = sum(avail)
    transp = avail_total if avail_total < pot_transp else pot_transp
    if transp > 0.0:
        for i in range(n_layers):
            water[i] -= transp * avail[i] / avail_total
    swfac = transp / pot_transp if pot_transp > 1e-12 else 1.0

    # 2c. drainage cascade; a layer sheds a fixed fraction of its
    # above-capacity water, capped by the space below
    drains = [0.0] * n_layers
    for i in range(n_layers):
        excess = water[i] - fc_mm if water[i] > fc_mm else 0.0
        drain = drain_coef * excess
        if i + 1 < n_layers:
            space = sat_mm - water[i + 1]
            if space < drain:
                drain = space
            water[i + 1] += drain
        water[i] -= drain
        drains[i] = drain

    # 3. mineralization (temperature-adjusted first-order supply)
    tfac = Q10 ** (((tmax + tmin) / 2.0 - T_REFERENCE) / 10.0)
    supply, organic_n = MINERALIZATION_RATE * tfac, soil.organic_n
    mineralized = supply if supply < organic_n else organic_n
    nitrate[0] += mineralized

    # 4. leaching: drainage carries a mixing-cell share of each layer's nitrate
    tleachd = 0.0
    for i in range(n_layers):
        if drains[i] <= 0.0 or nitrate[i] <= 0.0:
            continue
        moved = nitrate[i] * drains[i] / (fc_mm + drains[i])
        nitrate[i] -= moved
        if i + 1 < n_layers:
            nitrate[i + 1] += moved
        else:
            tleachd = moved

    # 5. denitrification in near-saturated layers
    denit_threshold = DENITRIFICATION_SW_FRAC * sat_mm
    tnoxd = 0.0
    for i in range(n_layers):
        if water[i] > denit_threshold and nitrate[i] > 0.0:
            loss = DENITRIFICATION_FRAC * nitrate[i]
            nitrate[i] -= loss
            tnoxd += loss

    # 6. phenology: stage transitions follow cumulative thermal time since
    # sowing and never reverse; leaves appear one per phyllochron from
    # emergence until flowering. Unsown and mature crops do not develop.
    dtt = thermal_time(weather)
    if sown and istage < MATURE:
        gdd += dtt
        if istage == SOWN and gdd >= GDD_EMERGENCE:
            istage = VEGETATIVE
        if istage == VEGETATIVE and gdd >= params.gdd_flowering:
            istage = FLOWERING
        if istage == FLOWERING and gdd >= params.gdd_grainfill:
            istage = GRAINFILL
        if istage == GRAINFILL and gdd >= params.gdd_maturity:
            istage = MATURE
        if istage < FLOWERING:
            leaves = (gdd - GDD_EMERGENCE if gdd > GDD_EMERGENCE
                      else 0.0) / PHYLLOCHRON
            leaves = leaves if leaves < MAX_LEAVES else MAX_LEAVES
            vstage = vstage if vstage > leaves else leaves
    if sown and dtt > 0.0:
        rtdep_cm += ROOT_GROWTH_CM_PER_DAY
        rtdep_cm = rtdep_cm if rtdep_cm < profile.depth_cm else profile.depth_cm
    # canopy from leaf number; linear senescence while grain fills
    xlai = vstage * LEAF_AREA_PER_LEAF_M2 * pltpop
    if istage >= MATURE:
        xlai = 0.0
    elif istage == GRAINFILL:
        left = ((params.gdd_maturity - gdd)
                / (params.gdd_maturity - params.gdd_grainfill))
        xlai *= left if left > 0.0 else 0.0

    # 7. potential growth from intercepted radiation (g/m2 -> kg/ha is x10)
    if istage in _ACTIVE_STAGES:
        interception = 1.0 - math.exp(-K_EXTINCTION * xlai)
        growth_pot = 10.0 * RUE_G_PER_MJ * srad * interception
    else:
        growth_pot = 0.0

    # 8. uptake, stress, realized growth
    demand = growth_pot * DEMAND_CONCENTRATION[istage]
    avail_n = [n * (0.0 if (f := (rtdep_cm - i * thickness_cm) / thickness_cm)
                    < 0.0 else 1.0 if f > 1.0 else f)
               for i, n in enumerate(nitrate)]
    avail_n_total = sum(avail_n)
    trnu = avail_n_total if avail_n_total < demand else demand
    if trnu > 0.0:
        for i in range(n_layers):
            nitrate[i] -= trnu * avail_n[i] / avail_n_total
    nstres = trnu / demand if demand > 1e-12 else 1.0

    growth = growth_pot * (swfac if swfac < nstres else nstres)
    plant_n += trnu
    if istage == GRAINFILL and growth > 0.0:
        grain_inc = GRAIN_FRACTION * growth
        grnwt += grain_inc
        n_transfer = GRAIN_N_CONC * grain_inc
        n_transfer = n_transfer if n_transfer < plant_n else plant_n
        grain_n += n_transfer
        plant_n -= n_transfer

    new = _tuple_new
    return (new(CropState, (sown, gdd, istage, vstage, xlai, topwt + growth,
                            grnwt, rtdep_cm, plant_n, grain_n)),
            new(SoilState, (tuple([w / layer_mm for w in water]),
                            tuple(nitrate), organic_n - mineralized)),
            new(DailyFluxes, (tleachd, tnoxd, trnu, volatilized, mineralized,
                              soil_evap + transp, runoff, drains[-1])),
            new(GrowthIndices, (dtt, nstres, swfac, growth)))
