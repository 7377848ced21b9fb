"""Small statistics used by the benchmark: percentiles, failure share,
run-to-run spread."""

from __future__ import annotations

import statistics
from typing import List, Optional, Sequence

# a tail percentile is reported only with at least this many samples beyond it
MIN_BEYOND = 10
TAIL_PERCENTILES = (99, 95, 90, 75)


def percentile(values: Sequence[float], p: float) -> float:
    """The p-th percentile with linear interpolation between order statistics."""
    if not values:
        raise ValueError("percentile of no samples")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def harrell_davis_median(values: Sequence[float]) -> float:
    """The Harrell-Davis estimate of the median: the order statistics
    weighted by a Beta((n+1)/2, (n+1)/2) distribution.  On a few dozen
    samples it moves less from run to run than the middle sample does."""
    from scipy.special import betainc

    if not values:
        raise ValueError("median of no samples")
    xs = sorted(values)
    n = len(xs)
    a = (n + 1) / 2.0
    edges = betainc(a, a, [i / n for i in range(n + 1)])
    return float(sum((hi - lo) * x
                     for lo, hi, x in zip(edges, edges[1:], xs)))


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie beyond the p-th percentile."""
    return int(n * (100.0 - p) / 100.0 + 1e-9)


def tail_percentile(n: int) -> Optional[int]:
    """Highest percentile above the median with MIN_BEYOND samples beyond it."""
    for p in TAIL_PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            return p
    return None


def tail_percentiles(n: int) -> List[int]:
    """The tail percentiles reported for n samples: p90 and the highest
    percentile, each only with MIN_BEYOND samples beyond it."""
    highest = tail_percentile(n)
    return sorted({p for p in (90, highest) if p is not None
                   and samples_beyond(n, p) >= MIN_BEYOND})


def failed_share(attempted: int, failed: int) -> float:
    """Failed operations over attempted operations."""
    if attempted < 1:
        raise ValueError("no operation was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed count {failed} outside 0..{attempted}")
    return failed / attempted


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
