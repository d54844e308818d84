"""Order statistics shared by ``run.py``, the runner and the self-tests.

Quartiles follow ``statistics.quantiles``, the rule the repeat summary
is judged by; the self-tests pin every rule here.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: A reported tail percentile must leave at least this many samples
#: beyond it; rarer tails are too noisy to read run to run.
TAIL_SAMPLES = 10

#: Candidate tail percentiles, in per-mille, highest first.
_TAIL_PERMILLE = (999, 990, 900, 500)


def percentile(values: Sequence[float], p: float) -> float:
    """Percentile ``p`` (0..100) with linear interpolation between
    order statistics (NumPy's default rule)."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {p!r}")
    xs = sorted(values)
    rank = (len(xs) - 1) * p / 100.0
    lo = math.floor(rank)
    hi = math.ceil(rank)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def tail_percentile(n: int) -> Optional[float]:
    """The highest of p99.9/p99/p90/p50 with at least
    :data:`TAIL_SAMPLES` of ``n`` samples beyond it (``None`` when even
    the median has fewer)."""
    for permille in _TAIL_PERMILLE:
        if n * (1000 - permille) >= TAIL_SAMPLES * 1000:
            return permille / 10.0
    return None


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles, extremes and both spreads of repeated runs.

    Quartiles follow ``statistics.quantiles(values, n=4)``; ``iqr_frac``
    is their distance as a share of the median and ``range_frac`` the
    max-min distance as a share of the median.
    """
    if not values:
        raise ValueError("summary of an empty sample")
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    scale = abs(median) if median else 1.0
    return {
        "n": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "iqr_frac": (q3 - q1) / scale,
        "range_frac": (max(values) - min(values)) / scale,
    }
