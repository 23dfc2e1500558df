"""Daily reward: yield value minus fertilizer, leaching, and overage costs.

The per-day reward is

    W1 * Y        on the harvest day only (Y = top weight at maturity)
    - W2 * a      fertilizer applied today
    - W3 * N_l    nitrate leached today
    - W4 * P      total-input overage, charged only on application days,

with ``P = max(0, cumulative applied - threshold)``, so input below the
threshold earns no bonus. The weights ``W1``-``W4`` are module constants;
the threshold, which differs by site, is the one setting (``RewardConfig``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ConfigError, check_fields

#: the weights of yield, fertilizer, leaching and overage
W1, W2, W3, W4 = 0.1, 0.1, 0.1, 1.0
_tuple_new = tuple.__new__  # as in ``simulator``


@dataclass(frozen=True)
class RewardConfig:
    threshold: float = 240.0   # allowable total nitrogen input, kg/ha

    def __post_init__(self):
        # an infinite threshold never charges an overage
        check_fields(self, threshold="[0, inf]")


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
    return _tuple_new(RewardBreakdown, (W1 * y if is_harvest else 0.0,
                                        W2 * a_t, W3 * tleachd, W4 * overage))
