"""Daily state vector of the crop/soil environment and observation masking.

The environment exposes 28 named variables per day. ``STATE_FIELDS`` lists
them in canonical order together with units and a plausible numeric range
used for fixed affine normalization of observations (no running statistics,
so normalization is deterministic and checkpoint-portable). ``sw`` is
vector-valued (one entry per soil layer) and is flattened when observed.

There are two observation kinds, the keys of ``OBSERVATIONS`` and the
members of ``ObservationMask``: ``full`` is every field, ``partial`` the
first ten (``PARTIAL_FIELDS``, cumsumfert through tmin), which a grower can
observe without sampling. ``sw`` is the last field and the partial fields
are a prefix of the canonical order, so ``observe`` takes one slice of the
state per kind.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np


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
# sampling, cumsumfert ... tmin: the first ten of the canonical order. Used by
# the partial-observation study.
PARTIAL_FIELDS: tuple[str, ...] = FIELD_ORDER[:10]

#: observation kind -> the state fields an agent of that kind sees
OBSERVATIONS: dict[str, tuple[str, ...]] = {"full": FIELD_ORDER,
                                            "partial": PARTIAL_FIELDS}


_FIELD_TYPES = {"dap": int, "istage": int, "sw": tuple[float, ...]}
StateVector = NamedTuple("StateVector", [(name, _FIELD_TYPES.get(name, float))
                                         for name in FIELD_ORDER])
StateVector.__doc__ = """One day of state, made from ``FIELD_ORDER``: ``dap``
and ``istage`` are ints, ``sw`` a tuple (a float per layer), else floats."""


class ObservationMask(Enum):
    """The state fields exposed to an agent: every one (``FULL``) or the ten
    of ``PARTIAL_FIELDS`` (``PARTIAL``). The values are the kinds of
    ``OBSERVATIONS``, so ``ObservationMask(kind)`` is that kind's mask."""

    FULL = "full"
    PARTIAL = "partial"

    def __init__(self, kind: str):
        self.included = OBSERVATIONS[kind]

    @classmethod
    def full(cls) -> "ObservationMask":
        return cls.FULL

    @classmethod
    def partial(cls) -> "ObservationMask":
        return cls.PARTIAL

    def size(self, n_layers: int) -> int:
        n = len(self.included)
        if "sw" in self.included:
            n += n_layers - 1
        return n


def observe(state: StateVector, mask: ObservationMask) -> np.ndarray:
    """The masked fields of ``state`` as a float vector: the full mask
    flattens ``sw``, the last field, and the partial mask is a prefix."""
    if mask.included is FIELD_ORDER:
        return np.array((*state[:-1], *state.sw), dtype=np.float64)
    return np.array(state[:len(mask.included)], dtype=np.float64)


@lru_cache(maxsize=None)
def _mask_bounds(included: tuple[str, ...], obs_size: int):
    """(low, span) per observation entry; ``sw`` fills the entries that the
    other fields leave."""
    n_layers = obs_size - len(included) + 1
    lo, hi = np.array([STATE_FIELDS[name][1] for name in included
                       for _ in range(n_layers if name == "sw" else 1)]
                      ).reshape(-1, 2).T
    return lo.copy(), hi - lo


def normalize_observation(obs: np.ndarray, mask: ObservationMask) -> np.ndarray:
    """Affinely rescale a raw observation to [0, 1] per field and clip.

    The scaling uses the fixed plausible ranges from ``STATE_FIELDS``, so the
    mapping never depends on data seen during training. Values outside the
    plausible range saturate at the bounds, which keeps network inputs bounded
    during heavy exploration (e.g. runaway cumulative fertilizer).
    """
    lo_arr, span = _mask_bounds(mask.included, obs.size)
    scaled = obs - lo_arr
    return np.divide(scaled, span, out=scaled).clip(0.0, 1.0, out=scaled)
