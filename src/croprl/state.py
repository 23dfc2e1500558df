"""Daily state vector of the crop/soil environment and observation masking.

The environment exposes 28 named variables per day. ``STATE_FIELDS`` lists
them in canonical order together with units and a plausible numeric range
used for fixed affine normalization of observations (no running statistics,
so normalization is deterministic and checkpoint-portable). ``sw`` is
vector-valued (one entry per soil layer) and is flattened when observed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .errors import MaskError


# name -> (unit, (plausible_low, plausible_high))
STATE_FIELDS: dict[str, tuple[str, tuple[float, float]]] = {
    "cumsumfert": ("kg/ha", (0.0, 400.0)),
    "dap": ("d", (0.0, 200.0)),
    "dtt": ("degC d", (0.0, 30.0)),
    "istage": ("-", (0.0, 5.0)),
    "vstage": ("leaves", (0.0, 20.0)),
    "pltpop": ("plants/m2", (0.0, 12.0)),
    "rain": ("mm/d", (0.0, 60.0)),
    "srad": ("MJ/m2/d", (0.0, 35.0)),
    "tmax": ("degC", (-15.0, 45.0)),
    "tmin": ("degC", (-25.0, 30.0)),
    "nstres": ("-", (0.0, 1.0)),
    "pcngrn": ("-", (0.0, 0.05)),
    "swfac": ("-", (0.0, 1.0)),
    "tleachd": ("kg/ha/d", (0.0, 20.0)),
    "grnwt": ("kg/ha", (0.0, 15000.0)),
    "cleach": ("kg/ha", (0.0, 200.0)),
    "cnox": ("kg/ha", (0.0, 50.0)),
    "tnoxd": ("kg/ha/d", (0.0, 10.0)),
    "trnu": ("kg/ha/d", (0.0, 25.0)),
    "wtnup": ("kg/ha", (0.0, 500.0)),
    "xlai": ("m2/m2", (0.0, 8.0)),
    "topwt": ("kg/ha", (0.0, 30000.0)),
    "es": ("mm/d", (0.0, 12.0)),
    "runoff": ("mm/d", (0.0, 60.0)),
    "wtdep": ("cm", (0.0, 250.0)),
    "rtdep": ("cm", (0.0, 250.0)),
    "totaml": ("kg/ha", (0.0, 20.0)),
    "sw": ("cm3/cm3", (0.0, 0.6)),
}

FIELD_ORDER: tuple[str, ...] = tuple(STATE_FIELDS)

# The ten fields a grower can observe without instrumented soil/plant
# sampling; used by the partial-observation study.
PARTIAL_FIELDS: tuple[str, ...] = (
    "cumsumfert",
    "dap",
    "dtt",
    "istage",
    "vstage",
    "pltpop",
    "rain",
    "srad",
    "tmax",
    "tmin",
)


@dataclass(frozen=True, slots=True)
class StateVector:
    """One day of environment state, in canonical field order."""

    cumsumfert: float
    dap: int
    dtt: float
    istage: int
    vstage: float
    pltpop: float
    rain: float
    srad: float
    tmax: float
    tmin: float
    nstres: float
    pcngrn: float
    swfac: float
    tleachd: float
    grnwt: float
    cleach: float
    cnox: float
    tnoxd: float
    trnu: float
    wtnup: float
    xlai: float
    topwt: float
    es: float
    runoff: float
    wtdep: float
    rtdep: float
    totaml: float
    sw: tuple[float, ...]

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}


@dataclass(frozen=True)
class ObservationMask:
    """Ordered subset of state fields exposed to an agent.

    ``sw`` expands to one entry per soil layer at its position in the mask
    (the end of the canonical order for the full mask).
    """

    included: tuple[str, ...]

    def __post_init__(self):
        for name in self.included:
            if name not in STATE_FIELDS:
                raise MaskError(f"unknown state field: {name!r}")

    @classmethod
    def full(cls) -> "ObservationMask":
        return cls(FIELD_ORDER)

    @classmethod
    def partial(cls) -> "ObservationMask":
        return cls(PARTIAL_FIELDS)

    @classmethod
    def of_kind(cls, kind: str) -> "ObservationMask":
        if kind == "full":
            return cls.full()
        if kind == "partial":
            return cls.partial()
        raise MaskError(f"unknown mask kind: {kind!r}")

    def size(self, n_layers: int) -> int:
        n = len(self.included)
        if "sw" in self.included:
            n += n_layers - 1
        return n


def observe(state: StateVector, mask: ObservationMask) -> np.ndarray:
    """Flatten the masked fields of ``state`` into a float vector.

    The mask checked its field names when it was built.
    """
    out: list[float] = []
    for name in mask.included:
        v = getattr(state, name)
        if name == "sw":
            out.extend(v)
        else:
            out.append(float(v))
    return np.asarray(out, dtype=np.float64)


_BOUNDS_CACHE: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


def _mask_bounds(mask: ObservationMask, obs_size: int):
    key = (mask.included, obs_size)
    cached = _BOUNDS_CACHE.get(key)
    if cached is not None:
        return cached
    n_layers = obs_size - len(mask.included) + 1 if "sw" in mask.included else 0
    lows: list[float] = []
    highs: list[float] = []
    for name in mask.included:
        lo, hi = STATE_FIELDS[name][1]
        reps = n_layers if name == "sw" else 1
        lows.extend([lo] * reps)
        highs.extend([hi] * reps)
    bounds = (np.asarray(lows), np.asarray(highs) - np.asarray(lows))
    _BOUNDS_CACHE[key] = bounds
    return bounds


def normalize_observation(obs: np.ndarray, mask: ObservationMask) -> np.ndarray:
    """Affinely rescale a raw observation to [0, 1] per field and clip.

    The scaling uses the fixed plausible ranges from ``STATE_FIELDS``, so the
    mapping never depends on data seen during training. Values outside the
    plausible range saturate at the bounds, which keeps network inputs bounded
    during heavy exploration (e.g. runaway cumulative fertilizer).
    """
    lo_arr, span = _mask_bounds(mask, obs.size)
    scaled = (obs - lo_arr) / span
    return np.clip(scaled, 0.0, 1.0)
