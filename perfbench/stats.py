"""Summary statistics the benchmark reports, in plain Python."""

from __future__ import annotations

import math


def tail(latencies, beyond=10):
    """The highest percentile with at least `beyond` items above it.

    Returns (value, percentile). With n items that is the (n - beyond)-th
    smallest value, at percentile 100 * (n - beyond) / n: p90 at 100 items.
    With `beyond` items or fewer it falls back to the maximum, at p100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0
    return ordered[n - beyond - 1], 100.0 * (n - beyond) / n


def _binomial_cdf(k, n, p):
    """P(X <= k) for X ~ Binomial(n, p), summed in log space."""
    if p <= 0.0:
        return 1.0
    if p >= 1.0:
        return 1.0 if k >= n else 0.0
    log_p, log_q = math.log(p), math.log1p(-p)
    total = 0.0
    for i in range(k + 1):
        log_term = (
            math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
            + i * log_p + (n - i) * log_q
        )
        total += math.exp(log_term)
    return total


def error_rate_upper(failed, attempted, alpha=0.05):
    """One-sided Clopper-Pearson upper confidence bound on the failure rate.

    With no failure among n items this is 1 - alpha**(1/n), about 3/n at
    95 %. It is never 0, and any failure raises it above the failure-free
    value for the same n.
    """
    if attempted < 1:
        raise ValueError("attempted must be at least 1")
    if failed >= attempted:
        return 1.0
    if failed == 0:
        return 1.0 - alpha ** (1.0 / attempted)
    low, high = failed / attempted, 1.0
    for _ in range(100):
        mid = 0.5 * (low + high)
        if _binomial_cdf(failed, attempted, mid) > alpha:
            low = mid
        else:
            high = mid
    return high
