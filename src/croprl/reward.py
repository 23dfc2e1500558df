"""Daily reward: yield value minus fertilizer, leaching, and overage costs.

The per-day reward is

    W1 * Y        on the harvest day only (Y = top weight at maturity)
    - W2 * a      fertilizer applied today
    - W3 * N_l    nitrate leached today
    - W4 * P      total-input overage, charged only on application days,

with ``P = max(0, cumulative applied - threshold)``, so input below the
threshold earns no bonus. The weights ``W1``-``W4`` are module constants.
The threshold differs by site: like the site's dates and plant density it
belongs to the location preset, as ``ScenarioConfig.n_threshold``.
"""

from __future__ import annotations

from math import inf
from typing import NamedTuple

from .errors import ConfigError

#: the weights of yield, fertilizer, leaching and overage
W1, W2, W3, W4 = 0.1, 0.1, 0.1, 1.0
_tuple_new = tuple.__new__  # as in ``simulator``


class RewardBreakdown(NamedTuple):
    yield_term: float
    fert_term: float
    leach_term: float
    overage_term: float

    @property
    def total(self) -> float:
        return self.yield_term - self.fert_term - self.leach_term - self.overage_term


def daily_reward(a_t: float, tleachd: float, cumsumfert_incl_today: float,
                 is_harvest: bool, y: float, threshold: float
                 ) -> RewardBreakdown:
    """Decomposed reward for one day, with ``threshold`` the allowable total
    N input in kg/ha (``ScenarioConfig.n_threshold``).

    ``cumsumfert_incl_today`` must already include ``a_t``; the overage
    penalty is only charged on days with a nonzero application. Every input
    must be finite and nonnegative, but the threshold may be infinite; NaN
    fails every comparison below, so it is refused too.
    """
    if not (0.0 <= a_t < inf and 0.0 <= tleachd < inf
            and 0.0 <= cumsumfert_incl_today < inf and threshold >= 0.0):
        raise ConfigError("reward inputs must be nonnegative")
    if is_harvest and not 0.0 <= y < inf:
        raise ConfigError("harvest yield must be nonnegative")

    # an infinite threshold gives max(0, -inf) = 0
    overage = (max(0.0, cumsumfert_incl_today - threshold)
               if a_t != 0.0 else 0.0)

    # in field order
    return _tuple_new(RewardBreakdown, (W1 * y if is_harvest else 0.0,
                                        W2 * a_t, W3 * tleachd, W4 * overage))
