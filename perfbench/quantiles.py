"""Percentiles and the sample-count rule for reporting a tail.

A tail percentile is reported only when at least ``MIN_BEYOND`` samples
lie beyond it, so a single slow sample cannot set it.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

__all__ = [
    "LEVELS",
    "MIN_BEYOND",
    "beyond",
    "highest_supported",
    "min_samples",
    "percentile",
]

LEVELS = (50.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def _rank(n: int, level: float) -> int:
    """1-based nearest rank of percentile ``level`` among ``n`` samples."""
    return max(1, math.ceil(level * n / 100.0 - 1e-9))


def beyond(n: int, level: float) -> int:
    """How many of ``n`` samples lie strictly beyond the ``level`` rank."""
    return n - _rank(n, level) if n else 0


def percentile(values: Sequence[float], level: float) -> float:
    """Nearest-rank percentile (``level`` in (0, 100]) of ``values``."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[_rank(len(ordered), level) - 1]


def highest_supported(
    n: int, levels: Sequence[float] = LEVELS, min_beyond: int = MIN_BEYOND
) -> Optional[float]:
    """Highest level with at least ``min_beyond`` of ``n`` samples beyond it."""
    supported = [lv for lv in levels if beyond(n, lv) >= min_beyond]
    return max(supported) if supported else None


def min_samples(level: float, min_beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count that supports ``level``."""
    n = 1
    while beyond(n, level) < min_beyond:
        n += 1
    return n
