"""Order statistics shared by the benchmark runner and the compare tool."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as `statistics.quantiles(values, n=4)` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail(values: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with `beyond` samples above it.

    The value is the (beyond+1)-th largest sample, so exactly `beyond`
    samples lie beyond it; the percentile is the share of samples at or
    below that rank, 100 * (N - beyond) / N.  Needs more than `beyond`
    samples.
    """
    n = len(values)
    if n <= beyond:
        raise ValueError(f"a tail needs more than {beyond} samples, got {n}")
    ordered = sorted(values)
    return 100.0 * (n - beyond) / n, ordered[n - beyond - 1]
