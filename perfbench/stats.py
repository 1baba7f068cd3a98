"""Order statistics for the benchmark's summaries."""

from __future__ import annotations

import math
import statistics

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= p <= 100.0:
        raise ValueError("p must lie in [0, 100]")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartiles(values) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them;
    a single value is its own quartiles."""
    xs = list(values)
    if not xs:
        raise ValueError("quartiles of no values")
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def tail(values):
    """The highest of TAIL_PERCENTILES with at least ten samples beyond it,
    as (p, value), or None when there are too few samples."""
    xs = list(values)
    for p in TAIL_PERCENTILES:
        if len(xs) * (100.0 - p) / 100.0 >= 10.0:
            return p, percentile(xs, p)
    return None


def summary(values) -> dict:
    """Median, quartiles, tail percentile and sample count."""
    xs = list(values)
    if not xs:
        return {"n": 0, "median": math.nan}
    q1, _, q3 = quartiles(xs)
    out = {"n": len(xs), "median": statistics.median(xs), "q1": q1, "q3": q3}
    t = tail(xs)
    if t is not None:
        out[f"p{t[0]:g}"] = t[1]
    return out
