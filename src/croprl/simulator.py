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
6. phenology: thermal time, growth stage, leaf number, canopy, root depth
7. potential biomass from intercepted radiation
8. nitrogen uptake, stress indices, and realized growth

Biomass units are kg/ha of dry matter, water is tracked volumetrically per
layer (converted to mm internally), nitrogen pools are kg/ha. The model is
pure-functional: ``advance_day`` consumes and returns immutable state, so
independent simulators can run in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError
from .weather import DailyWeather

# growth-stage codes (istage)
PRESOWN = 0
SOWN = 1
VEGETATIVE = 2
FLOWERING = 3
GRAINFILL = 4
MATURE = 5

_ACTIVE_STAGES = (VEGETATIVE, FLOWERING, GRAINFILL)


@dataclass(frozen=True)
class SoilProfile:
    """Static description of the soil column (uniform properties per layer)."""

    depth_cm: float
    n_layers: int = 3
    field_capacity: float = 0.30   # cm3/cm3
    saturation: float = 0.42
    wilting_point: float = 0.13
    drain_coef: float = 0.4        # fraction of above-capacity water draining per day
    runoff_threshold_mm: float = 40.0

    def __post_init__(self):
        if self.depth_cm <= 0 or self.n_layers < 1:
            raise ConfigError("soil profile needs positive depth and layers")
        if not 0 < self.wilting_point < self.field_capacity < self.saturation:
            raise ConfigError("need wilting_point < field_capacity < saturation")

    @property
    def layer_thickness_cm(self) -> float:
        return self.depth_cm / self.n_layers

    @property
    def layer_depth_mm(self) -> float:
        return self.layer_thickness_cm * 10.0

    def water_mm(self, sw: float) -> float:
        return sw * self.layer_depth_mm

    def volumetric(self, w_mm: float) -> float:
        return w_mm / self.layer_depth_mm

    def root_fractions(self, rtdep_cm: float) -> list[float]:
        """Fraction of each layer inside the rooted depth."""
        t = self.layer_thickness_cm
        return [min(max((rtdep_cm - i * t) / t, 0.0), 1.0)
                for i in range(self.n_layers)]


@dataclass(frozen=True)
class CropParams:
    """Phenology, canopy, and nitrogen-demand coefficients."""

    t_base: float = 8.0               # degC
    phyllochron: float = 43.0         # degC d per leaf
    max_leaves: float = 20.0
    gdd_emergence: float = 60.0
    gdd_flowering: float = 780.0
    gdd_grainfill: float = 930.0
    gdd_maturity: float = 1580.0
    rue_g_per_mj: float = 3.3
    k_extinction: float = 0.6
    leaf_area_per_leaf_m2: float = 0.010
    grain_fraction: float = 0.5       # share of new biomass to grain after flowering
    grain_n_conc: float = 0.0125
    root_growth_cm_per_day: float = 1.5
    # nitrogen demand per unit potential growth, by stage
    n_conc_vegetative: float = 0.020
    n_conc_flowering: float = 0.016
    n_conc_grainfill: float = 0.011

    def demand_concentration(self, istage: int) -> float:
        if istage == VEGETATIVE:
            return self.n_conc_vegetative
        if istage == FLOWERING:
            return self.n_conc_flowering
        if istage == GRAINFILL:
            return self.n_conc_grainfill
        return 0.0


@dataclass(frozen=True)
class NitrogenParams:
    volatilization_frac: float = 0.02     # of surface application, rain-free days
    mineralization_rate: float = 0.05     # kg/ha/d at reference temperature
    q10: float = 2.0
    t_reference: float = 20.0
    denitrification_frac: float = 0.02    # of layer nitrate per saturated day
    denitrification_sw_frac: float = 0.95  # of saturation
    et_coef: float = 0.6 / 2.45           # mm of water per MJ/m2 of radiation
    evap_floor_frac: float = 0.5          # air-dry bound as fraction of wilting point


@dataclass(frozen=True)
class SoilState:
    sw: tuple[float, ...]        # volumetric water per layer
    nitrate: tuple[float, ...]   # kg/ha per layer
    organic_n: float             # kg/ha mineralizable pool


@dataclass(frozen=True)
class CropState:
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


@dataclass(frozen=True)
class DailyFluxes:
    tleachd: float = 0.0      # kg/ha nitrate leached below the profile
    tnoxd: float = 0.0        # kg/ha denitrified
    trnu: float = 0.0         # kg/ha crop uptake
    volatilized: float = 0.0  # kg/ha ammonia loss
    mineralized: float = 0.0  # kg/ha organic -> nitrate
    es: float = 0.0           # mm evapotranspiration (soil evap + crop water use)
    runoff: float = 0.0       # mm
    drainage: float = 0.0     # mm leaving the bottom of the profile


@dataclass(frozen=True)
class GrowthIndices:
    dtt: float = 0.0
    nstres: float = 1.0
    swfac: float = 1.0
    growth: float = 0.0  # realized biomass increment, kg/ha


def initial_soil_state(profile: SoilProfile, nitrate: tuple[float, ...],
                       organic_n: float,
                       sw: tuple[float, ...] | None = None) -> SoilState:
    if len(nitrate) != profile.n_layers:
        raise ConfigError("initial nitrate must give one value per layer")
    if sw is None:
        sw = (profile.field_capacity,) * profile.n_layers
    return SoilState(sw=tuple(sw), nitrate=tuple(nitrate), organic_n=organic_n)


def thermal_time(weather: DailyWeather, t_base: float) -> float:
    return max(0.0, (weather.tmax + weather.tmin) / 2.0 - t_base)


def phenology_update(crop: CropState, weather: DailyWeather,
                     params: CropParams) -> tuple[CropState, float]:
    """Advance thermal time, growth stage, and leaf number by one day.

    Stage transitions are driven by cumulative thermal time since sowing and
    never reverse. Leaf appearance follows the phyllochron from emergence and
    freezes once the reproductive stage begins. Unsown crops do not develop.
    """
    dtt = thermal_time(weather, params.t_base)
    if not crop.sown or crop.istage >= MATURE:
        return crop, dtt

    gdd = crop.gdd + dtt
    istage = crop.istage
    if istage == SOWN and gdd >= params.gdd_emergence:
        istage = VEGETATIVE
    if istage == VEGETATIVE and gdd >= params.gdd_flowering:
        istage = FLOWERING
    if istage == FLOWERING and gdd >= params.gdd_grainfill:
        istage = GRAINFILL
    if istage == GRAINFILL and gdd >= params.gdd_maturity:
        istage = MATURE

    if istage < FLOWERING:
        vstage = min(params.max_leaves,
                     max(0.0, gdd - params.gdd_emergence) / params.phyllochron)
        vstage = max(vstage, crop.vstage)
    else:
        vstage = crop.vstage  # leaf count frozen after tasseling

    return replace(crop, gdd=gdd, istage=istage, vstage=vstage), dtt


def _canopy_lai(crop: CropState, params: CropParams, pltpop: float) -> float:
    """Leaf area index from leaf number; linear senescence while grain fills."""
    green = crop.vstage * params.leaf_area_per_leaf_m2 * pltpop
    if crop.istage < GRAINFILL:
        return green
    if crop.istage >= MATURE:
        return 0.0
    span = params.gdd_maturity - params.gdd_grainfill
    frac_left = max(0.0, (params.gdd_maturity - crop.gdd) / span)
    return green * frac_left


def advance_day(crop: CropState, soil: SoilState, weather: DailyWeather,
                n_applied: float, profile: SoilProfile, params: CropParams,
                nitro: NitrogenParams, pltpop: float,
                ) -> tuple[CropState, SoilState, DailyFluxes, GrowthIndices]:
    """Run one day of the coupled soil/crop model.

    ``n_applied`` is the fertilizer mass reaching the surface today (kg/ha).
    Returns the new crop and soil states plus the day's fluxes and indices.
    """
    if n_applied < 0:
        raise ConfigError("fertilizer application must be nonnegative")
    n_layers = profile.n_layers
    fc_mm = profile.water_mm(profile.field_capacity)
    sat_mm = profile.water_mm(profile.saturation)
    wp_mm = profile.water_mm(profile.wilting_point)
    air_dry_mm = nitro.evap_floor_frac * wp_mm

    water = [profile.water_mm(v) for v in soil.sw]
    nitrate = list(soil.nitrate)

    # 1. fertilizer; a slice volatilizes if the surface stays dry today
    volatilized = nitro.volatilization_frac * n_applied if weather.rain == 0.0 else 0.0
    nitrate[0] += n_applied - volatilized

    # 2a. runoff and infiltration into the top layer
    runoff = max(0.0, weather.rain - profile.runoff_threshold_mm)
    infiltration = weather.rain - runoff
    space = sat_mm - water[0]
    if infiltration > space:
        runoff += infiltration - space
        infiltration = space
    water[0] += infiltration

    # 2b. evapotranspiration, split by canopy cover (start-of-day canopy)
    pet = nitro.et_coef * weather.srad
    cover = 1.0 - math.exp(-params.k_extinction * crop.xlai)
    pot_soil_evap = pet * (1.0 - cover)
    pot_transp = pet * cover if crop.istage in _ACTIVE_STAGES else 0.0

    soil_evap = min(pot_soil_evap, max(0.0, water[0] - air_dry_mm))
    water[0] -= soil_evap

    root_frac = profile.root_fractions(crop.rtdep_cm)
    avail = [max(0.0, water[i] - wp_mm) * root_frac[i] for i in range(n_layers)]
    avail_total = sum(avail)
    transp = min(pot_transp, avail_total)
    if transp > 0.0:
        for i in range(n_layers):
            water[i] -= transp * avail[i] / avail_total
    swfac = transp / pot_transp if pot_transp > 1e-12 else 1.0

    # 2c. drainage cascade; a layer sheds a fixed fraction of its
    # above-capacity water, capped by the space below
    drains = [0.0] * n_layers
    for i in range(n_layers):
        excess = max(0.0, water[i] - fc_mm)
        drain = profile.drain_coef * excess
        if i + 1 < n_layers:
            drain = min(drain, sat_mm - water[i + 1])
            water[i + 1] += drain
        water[i] -= drain
        drains[i] = drain
    drainage_out = drains[-1]

    # 3. mineralization (temperature-adjusted first-order supply)
    tavg = (weather.tmax + weather.tmin) / 2.0
    tfac = nitro.q10 ** ((tavg - nitro.t_reference) / 10.0)
    mineralized = min(soil.organic_n, nitro.mineralization_rate * tfac)
    organic_n = soil.organic_n - mineralized
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
    denit_threshold = nitro.denitrification_sw_frac * sat_mm
    tnoxd = 0.0
    for i in range(n_layers):
        if water[i] > denit_threshold and nitrate[i] > 0.0:
            loss = nitro.denitrification_frac * nitrate[i]
            nitrate[i] -= loss
            tnoxd += loss

    # 6. phenology, canopy, roots
    crop, dtt = phenology_update(crop, weather, params)
    if crop.sown and dtt > 0.0:
        crop = replace(crop, rtdep_cm=min(profile.depth_cm,
                                          crop.rtdep_cm + params.root_growth_cm_per_day))
    crop = replace(crop, xlai=_canopy_lai(crop, params, pltpop))

    # 7. potential growth from intercepted radiation (g/m2 -> kg/ha is x10)
    if crop.istage in _ACTIVE_STAGES:
        interception = 1.0 - math.exp(-params.k_extinction * crop.xlai)
        growth_pot = 10.0 * params.rue_g_per_mj * weather.srad * interception
    else:
        growth_pot = 0.0

    # 8. uptake, stress, realized growth
    demand = growth_pot * params.demand_concentration(crop.istage)
    root_frac = profile.root_fractions(crop.rtdep_cm)
    avail_n = [nitrate[i] * root_frac[i] for i in range(n_layers)]
    avail_n_total = sum(avail_n)
    trnu = min(demand, avail_n_total)
    if trnu > 0.0:
        for i in range(n_layers):
            nitrate[i] -= trnu * avail_n[i] / avail_n_total
    nstres = trnu / demand if demand > 1e-12 else 1.0

    growth = growth_pot * min(nstres, swfac)
    topwt = crop.topwt + growth
    grnwt, grain_n, plant_n = crop.grnwt, crop.grain_n, crop.plant_n + trnu
    if crop.istage == GRAINFILL and growth > 0.0:
        grain_inc = params.grain_fraction * growth
        grnwt += grain_inc
        n_transfer = min(plant_n, params.grain_n_conc * grain_inc)
        grain_n += n_transfer
        plant_n -= n_transfer
    crop = replace(crop, topwt=topwt, grnwt=grnwt, grain_n=grain_n,
                   plant_n=plant_n)

    new_soil = SoilState(sw=tuple(profile.volumetric(w) for w in water),
                         nitrate=tuple(nitrate), organic_n=organic_n)
    fluxes = DailyFluxes(tleachd=tleachd, tnoxd=tnoxd, trnu=trnu,
                         volatilized=volatilized, mineralized=mineralized,
                         es=soil_evap + transp, runoff=runoff,
                         drainage=drainage_out)
    indices = GrowthIndices(dtt=dtt, nstres=nstres, swfac=swfac, growth=growth)
    return crop, new_soil, fluxes, indices
