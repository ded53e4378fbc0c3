"""Summary statistics with the sample-count rule for tail percentiles.

Percentiles use the Harrell-Davis estimator: a Beta-weighted average of
all order statistics rather than one or two of them.  Job times form
clusters (many jobs of a kind cost the same), and a plain sample
percentile jumps when noise swaps the order of two clusters; the
Harrell-Davis estimate moves smoothly.
"""
from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10        # samples that must lie beyond a reported percentile


def median(values) -> float:
    return statistics.median(values)


def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified
    Lentz method)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x
                    / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) < 1e-15:
            break
    return h


def beta_cdf(a: float, b: float, x: float) -> float:
    """The regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):
        return 1.0 - beta_cdf(b, a, 1.0 - x)
    log_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                 + a * math.log(x) + b * math.log1p(-x))
    return math.exp(log_front) * _beta_cf(a, b, x) / a


def harrell_davis(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile (0 < p < 1)."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * xs[i] for i in range(n))


def percentile(values, q: int) -> tuple[float, int]:
    """The q-th percentile (q in 1..99) and the number of samples strictly
    beyond it."""
    p = harrell_davis(values, q / 100)
    return p, sum(v > p for v in values)


def tail_ok(values, q: int) -> bool:
    """Whether the q-th percentile has at least MIN_BEYOND samples beyond
    it."""
    return len(values) >= 2 and percentile(values, q)[1] >= MIN_BEYOND
