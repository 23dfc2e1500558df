"""Daily reward: yield value minus fertilizer, leaching, and overage costs.

The per-day reward is

    w1 * Y        on the harvest day only (Y = top weight at maturity)
    - w2 * a      fertilizer applied today
    - w3 * N_l    nitrate leached today
    - w4 * P      total-input overage, charged only on application days,

with ``P = max(0, cumulative applied - threshold)`` under the default clamp.
The unclamped literal form (which turns into a bonus while cumulative input
is below the threshold) is selectable for fidelity experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError


@dataclass(frozen=True)
class RewardConfig:
    w1: float = 0.1
    w2: float = 0.1
    w3: float = 0.1
    w4: float = 1.0
    threshold: float = 240.0   # allowable total nitrogen input, kg/ha
    clamp_overage: bool = True

    def __post_init__(self):
        if min(self.w1, self.w2, self.w3, self.w4) < 0:
            raise ConfigError("reward weights must be nonnegative")
        if self.threshold < 0:
            raise ConfigError("reward threshold must be nonnegative")


@dataclass(frozen=True)
class RewardBreakdown:
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

    if a_t != 0.0:
        overage = cumsumfert_incl_today - cfg.threshold
        if cfg.clamp_overage:
            overage = max(0.0, overage)
    else:
        overage = 0.0
    if math.isinf(cfg.threshold):
        overage = 0.0

    return RewardBreakdown(
        yield_term=cfg.w1 * y if is_harvest else 0.0,
        fert_term=cfg.w2 * a_t,
        leach_term=cfg.w3 * tleachd,
        overage_term=cfg.w4 * overage,
    )
