"""Latency statistics: means, percentiles, and SLA checks.

A :class:`LatencyStats` wraps one set of per-request latency samples and
reports the metrics the service experiments care about -- mean, median, p95,
p99 -- plus an SLA predicate.  Percentiles use linear interpolation between
order statistics (the same convention as ``statistics.quantiles`` with
``method="inclusive"``), so small sample sets behave sensibly.

Every statistic is a vectorized numpy reduction over the (sorted-once)
sample array.  The public ``samples`` tuple is kept for compatibility --
tests and callers compare result sets with ``==``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class LatencyStats:
    """Summary statistics over a set of per-request latencies (seconds).

    An empty sample set is legal -- a prioritized request class can simply
    receive no traffic in a window -- and reports every statistic as ``nan``
    instead of raising, so fleet-level
    aggregation over classes never crashes on a starved class.
    """

    samples: "tuple[float, ...]"

    @cached_property
    def _ordered(self) -> np.ndarray:
        # Sorted once, shared by every percentile query on this instance.
        return np.sort(np.asarray(self.samples, dtype=np.float64))

    @classmethod
    def from_iterable(cls, samples) -> "LatencyStats":
        """Build from any iterable of latencies in seconds."""
        return cls(samples=tuple(samples))

    @classmethod
    def from_array(cls, samples: np.ndarray) -> "LatencyStats":
        """Build from a numpy array without an intermediate Python list."""
        stats = cls(samples=tuple(samples.tolist()))
        # The array is already at hand; seed the sort cache directly.
        stats.__dict__["_ordered"] = np.sort(samples.astype(np.float64, copy=False))
        return stats

    @property
    def count(self) -> int:
        """Number of samples."""
        return len(self.samples)

    @property
    def mean_s(self) -> float:
        """Mean latency; ``nan`` with no samples."""
        if self._ordered.size == 0:
            return float("nan")
        return float(self._ordered.mean())

    @property
    def max_s(self) -> float:
        """Largest latency; ``nan`` with no samples."""
        if self._ordered.size == 0:
            return float("nan")
        return float(self._ordered[-1])

    def percentile(self, fraction: float) -> float:
        """Latency at the given quantile (``fraction`` in [0, 1])."""
        return float(self.percentiles(np.array([fraction]))[0])

    def percentiles(self, fractions: np.ndarray) -> np.ndarray:
        """Vectorized quantile extraction (linear interpolation, one sort).

        With no samples every requested quantile is ``nan``.
        """
        fractions = np.asarray(fractions, dtype=np.float64)
        if np.any((fractions < 0.0) | (fractions > 1.0)):
            raise ValueError("fraction must be within [0, 1]")
        ordered = self._ordered
        if len(ordered) == 0:
            return np.full(fractions.shape, np.nan)
        if len(ordered) == 1:
            return np.full(fractions.shape, ordered[0])
        position = fractions * (len(ordered) - 1)
        low = position.astype(np.int64)
        high = np.minimum(low + 1, len(ordered) - 1)
        weight = position - low
        return ordered[low] * (1.0 - weight) + ordered[high] * weight

    @property
    def p99_s(self) -> float:
        """99th-percentile latency, the SLA metric."""
        return self.percentile(0.99)

    def summary(self, scale: float = 1e3) -> "dict[str, float]":
        """Headline metrics as a dict (milliseconds by default)."""
        p50, p95, p99 = self.percentiles(np.array([0.50, 0.95, 0.99])) * scale
        return {
            "mean": self.mean_s * scale,
            "p50": float(p50),
            "p95": float(p95),
            "p99": float(p99),
            "max": self.max_s * scale,
        }

