"""Small statistics helpers shared by the simulator and the benchmarks."""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np


def percentile(samples: Sequence[float], pct: float) -> float:
    """Return the ``pct``-th percentile (0-100) of ``samples``.

    Uses linear interpolation; raises ``ValueError`` on empty input so a
    benchmark that produced no samples fails loudly instead of reporting 0.
    """
    if len(samples) == 0:
        raise ValueError("percentile of empty sample set")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {pct}")
    return float(np.percentile(np.asarray(samples, dtype=float), pct))


def geometric_mean(values: Sequence[float]) -> float:
    """Geometric mean; standard for cross-benchmark slowdown summaries."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("geometric mean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geometric mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))


def normalized_l1_distance(
    left: Mapping[object, float], right: Mapping[object, float]
) -> float:
    """L1 distance between two normalized histograms, in [0, 2].

    This is the ``error`` of the paper's Wall-style weight matching
    (Section 5.3): each histogram is normalized to sum to 1 and the
    summed absolute occurrence difference is returned.  Two disjoint
    histograms score the maximum error of 2.
    """
    total_left = sum(left.values())
    total_right = sum(right.values())
    keys = set(left) | set(right)
    if not keys:
        return 0.0
    error = 0.0
    for key in keys:
        p = left.get(key, 0.0) / total_left if total_left else 0.0
        q = right.get(key, 0.0) / total_right if total_right else 0.0
        error += abs(p - q)
    return error


class OnlineStats:
    """Streaming mean/variance/min/max accumulator (Welford's algorithm).

    Used by the kernel simulator's accounting so million-event runs don't
    have to retain raw samples.
    """

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def add(self, value: float) -> None:
        """Fold one observation into the accumulator."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else 0.0

    @property
    def stddev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "OnlineStats") -> "OnlineStats":
        """Return a new accumulator equivalent to seeing both streams."""
        merged = OnlineStats()
        merged.count = self.count + other.count
        if merged.count == 0:
            return merged
        delta = other._mean - self._mean
        merged._mean = self._mean + delta * other.count / merged.count
        merged._m2 = (
            self._m2
            + other._m2
            + delta * delta * self.count * other.count / merged.count
        )
        merged.minimum = min(self.minimum, other.minimum)
        merged.maximum = max(self.maximum, other.maximum)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OnlineStats(count={self.count}, mean={self.mean:.4g}, "
            f"std={self.stddev:.4g})"
        )
