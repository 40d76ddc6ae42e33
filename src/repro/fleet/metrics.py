"""Fleet metrics: mergeable log-binned latency histograms and day results.

A simulated high-load day holds ~10^8 request latencies -- far too many to
keep as samples.  :class:`LatencyHistogram` bins latencies on a logarithmic
grid (64 bins per decade from 10 microseconds to 1000 seconds), which bounds
the percentile error to under ~1.9% of the value per query while costing a
fixed ~45 KB regardless of request count.  Histograms merge associatively,
so per-chunk accumulation is order-independent: identical latency arrays
produce identical histograms whatever order the chunks arrive in.

:class:`FleetResult` aggregates a day: per-(epoch, datacenter) rows with
deployed servers and tail latency, per-class SLA attainment, autoscaling
activity, and the monthly-TCO projection the cost-vs-SLA studies grade.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Histogram grid: log-spaced bin edges covering 1e-5 s .. 1e3 s.
_DECADE_LOW = -5
_DECADE_HIGH = 3
_BINS_PER_DECADE = 64


def _edges() -> np.ndarray:
    """The shared log-spaced bin-edge grid (computed once)."""
    return np.logspace(
        _DECADE_LOW,
        _DECADE_HIGH,
        (_DECADE_HIGH - _DECADE_LOW) * _BINS_PER_DECADE + 1,
    )


_EDGES = _edges()


class LatencyHistogram:
    """A mergeable log-binned latency distribution.

    Counts land in fixed log-spaced bins (plus underflow/overflow slots);
    the exact sum, maximum, and count ride along so the mean is exact and
    only the percentiles are binned approximations.
    """

    __slots__ = ("counts", "underflow", "overflow", "total", "sum_s", "max_s")

    def __init__(self) -> None:
        self.counts = np.zeros(_EDGES.size - 1, dtype=np.int64)
        self.underflow = 0
        self.overflow = 0
        self.total = 0
        self.sum_s = 0.0
        self.max_s = 0.0

    def add_batch(self, latencies: np.ndarray) -> None:
        """Accumulate one latency array (seconds, non-negative)."""
        if latencies.size == 0:
            return
        counts, _ = np.histogram(latencies, bins=_EDGES)
        self.counts += counts
        self.underflow += int(np.count_nonzero(latencies < _EDGES[0]))
        self.overflow += int(np.count_nonzero(latencies >= _EDGES[-1]))
        self.total += int(latencies.size)
        self.sum_s += float(latencies.sum())
        self.max_s = max(self.max_s, float(latencies.max()))

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold ``other`` into this histogram (associative, commutative)."""
        self.counts += other.counts
        self.underflow += other.underflow
        self.overflow += other.overflow
        self.total += other.total
        self.sum_s += other.sum_s
        self.max_s = max(self.max_s, other.max_s)

    @property
    def count(self) -> int:
        """Total recorded latencies."""
        return self.total

    @property
    def mean_s(self) -> float:
        """Exact mean latency (``nan`` when empty)."""
        if self.total == 0:
            return float("nan")
        return self.sum_s / self.total

    def percentile(self, fraction: float) -> float:
        """Approximate latency quantile (``nan`` when empty).

        Locates the bin holding the target order statistic and interpolates
        linearly within it; underflow resolves to the grid floor and overflow
        to the exact maximum.
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        if self.total == 0:
            return float("nan")
        target = fraction * self.total
        if target <= self.underflow:
            return float(_EDGES[0])
        position = target - self.underflow
        cumulative = np.cumsum(self.counts)
        index = int(np.searchsorted(cumulative, position))
        if index >= self.counts.size:
            return self.max_s
        below = cumulative[index - 1] if index > 0 else 0
        inside = self.counts[index]
        weight = (position - below) / inside if inside > 0 else 0.0
        low, high = _EDGES[index], _EDGES[index + 1]
        return float(low + (high - low) * weight)

    def fraction_below(self, threshold_s: float) -> float:
        """Fraction of recorded latencies at or below ``threshold_s``.

        The SLA-attainment metric; exact to bin resolution (``nan`` empty).
        """
        if self.total == 0:
            return float("nan")
        if threshold_s >= self.max_s:
            return 1.0
        index = int(np.searchsorted(_EDGES, threshold_s, side="right")) - 1
        if index < 0:
            return 0.0
        below = self.underflow + int(self.counts[:index].sum())
        if index < self.counts.size:
            low, high = _EDGES[index], _EDGES[index + 1]
            weight = (threshold_s - low) / (high - low)
            below += weight * int(self.counts[index])
        return min(1.0, below / self.total)

    def summary_ms(self) -> "dict[str, float]":
        """Headline metrics in milliseconds (p50/p95/p99/mean/max)."""
        return {
            "mean": self.mean_s * 1e3,
            "p50": self.percentile(0.50) * 1e3,
            "p95": self.percentile(0.95) * 1e3,
            "p99": self.percentile(0.99) * 1e3,
            "max": self.max_s * 1e3 if self.total else float("nan"),
        }


@dataclass
class EpochDatacenterStats:
    """One (epoch, datacenter) cell of a fleet day.

    ``utilization`` is busy-time over deployed capacity for the epoch width;
    it can exceed 1.0 when an overloaded epoch's backlog drains into the
    next (the stateless-epoch approximation documented in ``docs/fleet.md``).
    """

    epoch: int
    datacenter: str
    servers: int
    offered_qps: float
    requests: int
    busy_s: float
    histogram: LatencyHistogram = field(default_factory=LatencyHistogram)

    def utilization(self, parallelism: int, epoch_s: float) -> float:
        """Busy time as a fraction of the epoch's deployed unit-seconds."""
        deployed = self.servers * parallelism * epoch_s
        return self.busy_s / deployed if deployed > 0 else 0.0


@dataclass
class FleetResult:
    """Outcome of one simulated fleet day.

    Attributes:
        total_requests: requests simulated across the whole day.
        epoch_stats: per-(epoch, datacenter) cells in epoch-major order.
        class_histograms: end-to-end latency distribution per request class.
        datacenter_histograms: end-to-end latency distribution per site.
        class_samples: exact per-class sorted latency tuples -- only filled
            when the engine runs with ``collect_samples=True`` (small runs,
            equivalence tests); ``None`` at day scale.
        server_hours: deployed server-hours per datacenter over the day.
        scale_events: autoscaling changes per datacenter (up + down).
        network_sum_s: summed per-request network latency over the day.
    """

    total_requests: int
    epoch_stats: "list[EpochDatacenterStats]"
    class_histograms: "dict[str, LatencyHistogram]"
    datacenter_histograms: "dict[str, LatencyHistogram]"
    class_samples: "dict[str, tuple[float, ...]] | None"
    server_hours: "dict[str, float]"
    scale_events: "dict[str, int]"
    network_sum_s: float

    @property
    def network_mean_ms(self) -> float:
        """Mean per-request network latency in ms (``nan`` with no traffic)."""
        if self.total_requests == 0:
            return float("nan")
        return self.network_sum_s / self.total_requests * 1e3

    def datacenter_utilization(self, datacenters, epoch_s: float) -> "dict[str, float]":
        """Day-level utilization per datacenter: busy over deployed unit-time."""
        busy = {dc.name: 0.0 for dc in datacenters}
        deployed = {dc.name: 0.0 for dc in datacenters}
        parallelism = {dc.name: dc.parallelism for dc in datacenters}
        for stats in self.epoch_stats:
            busy[stats.datacenter] += stats.busy_s
            deployed[stats.datacenter] += (
                stats.servers * parallelism[stats.datacenter] * epoch_s
            )
        return {
            name: busy[name] / deployed[name] if deployed[name] > 0 else 0.0
            for name in busy
        }

    def monthly_cost_usd(self, datacenters, horizon_hours: float) -> float:
        """Monthly TCO projection from the simulated horizon.

        The mean deployed server count over the horizon (server-hours divided
        by horizon hours) is billed at each datacenter's monthly server cost
        -- a month of identical days.  A fleet that scales down overnight is
        billed for exactly the capacity it kept.
        """
        if horizon_hours <= 0:
            raise ValueError("horizon_hours must be positive")
        total = 0.0
        for datacenter in datacenters:
            hours = self.server_hours.get(datacenter.name, 0.0)
            total += (hours / horizon_hours) * datacenter.server_cost_monthly_usd
        return total

    def sla_attainment(self, classes) -> "dict[str, float]":
        """Fraction of each class's requests inside its p99 SLA target."""
        return {
            cls.name: self.class_histograms[cls.name].fraction_below(
                cls.sla_p99_ms / 1e3
            )
            for cls in classes
            if cls.name in self.class_histograms
        }
