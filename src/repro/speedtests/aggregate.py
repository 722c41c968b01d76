"""Directional speed-sample aggregation (the enrichment layer's kernel).

Measured-truth aggregation works per *direction*: a tile can carry
download samples, upload samples, both, or neither (e.g. every test from
a cell failed its upload leg, or a tier advertises no upload at all).
The paper-adjacent failure mode is silently coding an unmeasured
direction as ``0.0`` — a zero *measurement* means "measured and found
dead", which is the strongest possible overstatement evidence, while a
*missing* direction means "no evidence".  This module keeps the two
apart: an unmeasured direction aggregates to ``NaN`` (never a
divide-by-zero, never a fabricated ``0.0``), with the per-direction
sample count carried alongside so consumers can tell the cases apart
without sentinel comparisons.

Samples that are non-finite or non-positive are excluded before
aggregation: a throughput of ``0.0`` or below is a failed measurement
leg, not a speed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DirectionalSummary",
    "directional_summary",
    "segment_median_p90",
    "valid_samples",
]

#: Upper quantile reported per direction (the truth-map "p90" columns).
_P90 = 0.9


@dataclass(frozen=True)
class DirectionalSummary:
    """Median/p90 aggregates of one tile's samples, per direction.

    Statistics of a direction with ``n_* == 0`` are ``NaN`` — explicit
    missing, distinct from a measured ``0.0``.
    """

    n_down: int
    median_down: float
    p90_down: float
    n_up: int
    median_up: float
    p90_up: float


def valid_samples(samples) -> np.ndarray:
    """Finite, positive samples as a float64 array (the measurable leg)."""
    arr = np.asarray(samples, dtype=np.float64).ravel()
    return arr[np.isfinite(arr) & (arr > 0.0)]


def _direction(samples) -> tuple[int, float, float]:
    arr = valid_samples(samples)
    if arr.size == 0:
        return 0, float("nan"), float("nan")
    return (
        int(arr.size),
        float(np.median(arr)),
        float(np.quantile(arr, _P90)),
    )


def directional_summary(down_mbps, up_mbps) -> DirectionalSummary:
    """Aggregate one tile's download/upload samples independently.

    Each direction that has at least one valid (finite, positive) sample
    yields its median and p90; a direction with none yields ``NaN``
    statistics and a zero count.  Down-only and up-only tiles are
    first-class — there is no shared denominator to divide by zero on.
    """
    n_down, median_down, p90_down = _direction(down_mbps)
    n_up, median_up, p90_up = _direction(up_mbps)
    return DirectionalSummary(
        n_down=n_down,
        median_down=median_down,
        p90_down=p90_down,
        n_up=n_up,
        median_up=median_up,
        p90_up=p90_up,
    )


def segment_median_p90(
    samples, segment, n_segments: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment median and p90 of the valid samples, vectorized.

    ``segment[i]`` (in ``[0, n_segments)``) names the group sample ``i``
    belongs to.  Segment ``s`` gets bitwise the statistics
    :func:`directional_summary` computes for one direction over
    ``samples[segment == s]``: the same valid-sample filter, the two-middle
    mean for even counts, NumPy's linear quantile (``(n - 1) * 0.9``
    virtual index, two-sided lerp) for p90, and ``NaN`` for a segment
    with no valid sample.  One sort replaces a per-segment call.
    """
    samples = np.asarray(samples, dtype=np.float64).ravel()
    segment = np.asarray(segment, dtype=np.int64).ravel()
    valid = np.isfinite(samples) & (samples > 0.0)
    values, segment = samples[valid], segment[valid]
    values = values[np.lexsort((values, segment))]
    n = np.bincount(segment, minlength=n_segments)
    start = np.cumsum(n) - n
    median = np.full(n_segments, np.nan)
    p90 = np.full(n_segments, np.nan)
    measured = n > 0
    n, start = n[measured], start[measured]
    with np.errstate(over="ignore", invalid="ignore"):
        low = values[start + (n - 1) // 2]
        high = values[start + n // 2]
        median[measured] = np.where(n % 2 == 1, low, (low + high) / 2)
        # np.quantile's linear method; an index at or past the last sample
        # reads the last one with gamma measured from index -1.
        virtual = (n - 1) * _P90
        last = virtual >= n - 1
        below = np.where(last, -1.0, np.floor(virtual))
        gamma = virtual - below
        lo = np.where(last, n - 1, below.astype(np.int64))
        hi = np.where(last, n - 1, lo + 1)
        a, b = values[start + lo], values[start + hi]
        diff = b - a
        p90[measured] = np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)
    return median, p90
