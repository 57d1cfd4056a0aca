"""Summary statistics for the benchmark's timings."""

from __future__ import annotations

import math
from typing import Sequence

TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0)


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p % of
    the samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(samples: Sequence[float], min_beyond: int = 10) -> tuple[float, float] | None:
    """The highest of ``TAIL_CANDIDATES`` that has at least ``min_beyond``
    samples strictly above it, as (p, value); None when even the lowest
    candidate has too few samples beyond it."""
    for p in TAIL_CANDIDATES:
        value = percentile(samples, p)
        if sum(1 for s in samples if s > value) >= min_beyond:
            return p, value
    return None
