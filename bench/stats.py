"""Order statistics shared by the end-to-end and per-layer reports."""

from __future__ import annotations

import math
import statistics

#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


def tail(values) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile). With ten samples or fewer no percentile
    qualifies, and the maximum is returned as percentile 100.
    """
    return tail_of_sorted(sorted(values))


def tail_of_sorted(ordered) -> tuple[float, float]:
    """``tail`` of samples already sorted in ascending order."""
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return float(ordered[-1]), 100.0
    return (float(ordered[n - TAIL_BEYOND - 1]),
            math.floor(1000.0 * (n - TAIL_BEYOND) / n) / 10.0)


def median(values) -> float:
    return float(statistics.median(values))

