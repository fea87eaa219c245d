"""Summary statistics used by every workload.

Timings are reported as medians; a tail percentile is reported only
together with the number of samples beyond it, so a reader can tell a
p90 backed by thirty slow requests from one backed by two.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Sequence

__all__ = ["geomean", "median", "percentile", "MIN_BEYOND", "Tail", "tail",
           "spread"]

#: Samples that must lie beyond a tail percentile for it to count.
MIN_BEYOND = 10


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values:
        raise ValueError("geomean of no values")
    if any(v <= 0 for v in values):
        raise ValueError(f"geomean needs positive values, got {min(values)}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between
    closest ranks, the rule ``numpy.percentile`` uses by default."""
    if not values:
        raise ValueError("percentile of no values")
    if not 0 <= q <= 100:
        raise ValueError(f"percentile {q} outside 0..100")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


@dataclass(frozen=True)
class Tail:
    """A tail percentile with its support: ``beyond`` is the number of
    samples strictly above ``value``; ``supported`` says whether at
    least :data:`MIN_BEYOND` of them back it."""

    q: float
    value: float
    samples: int
    beyond: int
    supported: bool


def tail(values: Sequence[float], q: float) -> Tail:
    """The ``q``-th percentile and whether at least :data:`MIN_BEYOND`
    samples lie beyond it."""
    value = percentile(values, q)
    beyond = sum(1 for v in values if v > value)
    return Tail(q, value, len(values), beyond, beyond >= MIN_BEYOND)


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median, with the
    quartiles Python's ``statistics.quantiles(values, n=4)`` gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
