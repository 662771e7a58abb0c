"""Exact order statistics over raw samples.

Every latency the benchmark reports is picked from the full list of
samples a run collected, never from a bucketed histogram, so a 10% shift
in a percentile is a 10% shift in the number printed.
"""

from __future__ import annotations

import math
from typing import Sequence


def quantile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile: the smallest sample with at least a share
    *q* of all samples at or below it.

    Always returns one of the samples (no interpolation), so the value
    is something the run actually observed.

    >>> quantile([5, 1, 4, 2, 3], 0.5)
    3
    >>> quantile([5, 1, 4, 2, 3], 0.95)
    5
    """
    if not samples:
        raise ValueError("quantile of an empty sample")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile {q} outside [0, 1]")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def median(samples: Sequence[float]) -> float:
    """The nearest-rank median (see :func:`quantile`)."""
    return quantile(samples, 0.5)


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when the base is empty."""
    return num / den if den else 0.0

