"""Order statistics used by the benchmark report."""

from __future__ import annotations

import statistics

import numpy as np

MIN_BEYOND = 10


def supported_percentile(values, q: float):
    """(value, samples beyond it) of the q-th percentile, or None when
    fewer than ``MIN_BEYOND`` samples lie strictly above it."""
    if not len(values):
        return None
    value = float(np.percentile(values, q))
    beyond = int(np.sum(np.asarray(values) > value))
    if beyond < MIN_BEYOND:
        return None
    return value, beyond


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
