"""Small statistics helpers shared by the benchmark's workloads.

Pure functions over lists of floats; nothing here imports ``repro``.
"""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

#: A percentile is reported only when at least this many samples lie
#: strictly beyond it, so one outlier cannot set it.
MIN_TAIL_SAMPLES = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q``-th percentile (nearest rank), or None when unsupported.

    Nearest rank picks an observed value: the smallest sample with at
    least ``q`` percent of the sample at or below it.  The result is
    None unless at least :data:`MIN_TAIL_SAMPLES` samples lie beyond
    that rank, so p95 needs 200 samples and p99 needs 1000.
    """
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must lie in (0, 100), got {q}")
    n = len(values)
    rank = math.ceil(q / 100.0 * n)
    if n == 0 or n - rank < MIN_TAIL_SAMPLES:
        return None
    return float(sorted(values)[rank - 1])


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of positive values."""
    if not values or any(v <= 0 for v in values):
        raise ValueError("geomean needs a non-empty sample of positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))

