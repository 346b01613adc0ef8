"""Percentile and ratio arithmetic for the benchmark.

Kept free of I/O so perfbench/tests can check it directly.
"""

import math
import statistics


def percentile(values, p):
    """The p-th percentile (0..100) with linear interpolation between
    closest ranks (numpy's default). Raises on an empty sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 <= p <= 100:
        raise ValueError(f"percentile {p} outside [0, 100]")
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return float(xs[lo])
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n, p):
    """How many of n samples lie strictly above the p-th percentile
    rank, i.e. n minus the samples at or below it."""
    return n - math.ceil(n * p / 100.0)


def ratio(num, den):
    """num / den, refusing a zero or negative base (a ratio is always
    given with its base, and a base of 0 has no meaning here)."""
    if den <= 0:
        raise ValueError(f"ratio with non-positive base {den}")
    return num / den


def mean_of_medians(groups):
    """Mean over groups of each group's median: the frame workloads'
    per-frame time, which weights every scene equally however many
    frames each managed in the time budget."""
    meds = [statistics.median(g) for g in groups if g]
    if not meds:
        raise ValueError("no samples")
    return sum(meds) / len(meds)
