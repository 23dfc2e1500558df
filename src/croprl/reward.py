"""Daily reward: yield value minus fertilizer, leaching, and overage costs.

The per-day reward is

    w1 * Y        on the harvest day only (Y = top weight at maturity)
    - w2 * a      fertilizer applied today
    - w3 * N_l    nitrate leached today
    - w4 * P      total-input overage, charged only on application days,

with ``P = max(0, cumulative applied - threshold)``, so input below the
threshold earns no bonus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigError, check_fields

#: Largest reward weight, far above any price ratio: every reward stays finite
MAX_WEIGHT = 1e6
_tuple_new = tuple.__new__  # as in ``simulator``


@dataclass(frozen=True)
class RewardConfig:
    w1: float = 0.1
    w2: float = 0.1
    w3: float = 0.1
    w4: float = 1.0
    threshold: float = 240.0   # allowable total nitrogen input, kg/ha

    def __post_init__(self):
        # an infinite threshold never charges an overage
        check_fields(self, threshold="[0, inf]", **dict.fromkeys(
            ("w1", "w2", "w3", "w4"), f"[0, {MAX_WEIGHT:g}]"))


class RewardBreakdown(NamedTuple):
    yield_term: float
    fert_term: float
    leach_term: float
    overage_term: float

    @property
    def total(self) -> float:
        return self.yield_term - self.fert_term - self.leach_term - self.overage_term


def daily_reward(a_t: float, tleachd: float, cumsumfert_incl_today: float,
                 is_harvest: bool, y: float, cfg: RewardConfig) -> RewardBreakdown:
    """Decomposed reward for one day.

    ``cumsumfert_incl_today`` must already include ``a_t``; the overage
    penalty is only charged on days with a nonzero application.
    """
    if a_t < 0 or tleachd < 0 or cumsumfert_incl_today < 0:
        raise ConfigError("reward inputs must be nonnegative")
    if is_harvest and y < 0:
        raise ConfigError("harvest yield must be nonnegative")

    # an infinite threshold gives max(0, -inf) = 0
    overage = (max(0.0, cumsumfert_incl_today - cfg.threshold)
               if a_t != 0.0 else 0.0)

    # in field order
    return _tuple_new(RewardBreakdown, (cfg.w1 * y if is_harvest else 0.0,
                                        cfg.w2 * a_t, cfg.w3 * tleachd,
                                        cfg.w4 * overage))
