"""Order statistics shared by the runner, the comparer and the tests."""

from __future__ import annotations

import math
import statistics

#: candidate tail percentiles in tenths of a percent (exact integer
#: arithmetic for the samples-beyond test), highest first
TAIL_PERMILLE = (999, 990, 900, 750)

#: samples a tail percentile needs beyond it before it is reported
MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile *p* (0..100) of *values*."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    rank = (len(data) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (rank - lo)


def median(values) -> float:
    return percentile(values, 50.0)


def tail(values) -> dict:
    """The highest percentile with at least :data:`MIN_BEYOND` samples
    beyond it; the median (with the count) when no tail qualifies."""
    n = len(values)
    for permille in TAIL_PERMILLE:
        if n * (1000 - permille) >= MIN_BEYOND * 1000:
            p = permille / 10
            return {"percentile": p, "value": percentile(values, p), "n": n}
    return {"percentile": 50.0, "value": median(values), "n": n}


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` by ``statistics.quantiles(values, n=4)``;
    a single value is its own quartiles."""
    data = list(values)
    if len(data) == 1:
        return data[0], data[0], data[0]
    q1, mid, q3 = statistics.quantiles(data, n=4)
    return q1, mid, q3


def spread(values) -> float:
    """Inter-quartile range as a share of the median."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / mid if mid else math.inf
