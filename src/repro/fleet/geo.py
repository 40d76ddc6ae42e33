"""Fleet geography: regions, datacenters, and inter-region network latency.

A :class:`Region` is a point on an abstract plane whose unit of distance is
"one thousand kilometres of fibre": the network latency between two regions is
a fixed per-hop base (serialization, last-mile) plus a propagation term linear
in the Euclidean distance.  A :class:`Datacenter` pins one service cluster --
the same (servers x parallelism x service-time) G/G/k fabric the chapter-7
studies simulate -- to a region and prices it for the monthly-TCO accounting
the autoscaling studies grade.

Everything here is frozen and float-deterministic: network latency is computed
once per (origin, datacenter) pair and added to request latencies with one
numpy expression, so it never perturbs the bit-identity contract (see
``docs/fleet.md``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.perfmodel.analytic import require_positive_finite
from repro.service.cluster import BALANCER_POLICIES

#: Fixed per-request network overhead between any two distinct regions (s).
DEFAULT_BASE_LATENCY_S = 0.0005

#: Propagation latency per unit of inter-region distance (s / distance-unit).
DEFAULT_LATENCY_PER_UNIT_S = 0.004


@dataclass(frozen=True)
class Region:
    """A traffic origin / datacenter site on the fleet's latency plane.

    Attributes:
        name: human-readable region name (``"us-east"``).
        x: first plane coordinate (thousands of km).
        y: second plane coordinate (thousands of km).
    """

    name: str
    x: float = 0.0
    y: float = 0.0

    def distance_to(self, other: "Region") -> float:
        """Euclidean distance to ``other`` in plane units."""
        return math.hypot(self.x - other.x, self.y - other.y)


def network_latency_s(
    origin: Region,
    destination: Region,
    base_s: float = DEFAULT_BASE_LATENCY_S,
    per_unit_s: float = DEFAULT_LATENCY_PER_UNIT_S,
) -> float:
    """One-way request network latency between two regions (seconds).

    Zero within a region (the request never leaves the building's fabric);
    otherwise ``base_s + per_unit_s * distance``.
    """
    if origin == destination:
        return 0.0
    return base_s + per_unit_s * origin.distance_to(destination)


@dataclass(frozen=True)
class Datacenter:
    """One datacenter: a service cluster pinned to a region, with a price tag.

    Attributes:
        name: datacenter name (``"dc-east"``).
        region: the region the datacenter (and its egress latency) lives in.
        num_servers: initially deployed servers (autoscaling moves this
            between ``min_servers`` and ``max_servers`` at epoch boundaries).
        parallelism: service units per server (usable cores).
        service_mean_s: mean per-request service time of one unit.
        policy: intra-datacenter load-balancing policy (``jsq``, ``po2``,
            ``random`` or ``round_robin``).
        service_distribution: per-request work distribution
            (``"exponential"`` or ``"deterministic"``).
        server_cost_monthly_usd: fully burdened monthly cost of one server
            (capex amortization + power + cooling), for the TCO grading.
        min_servers: autoscaling floor (the scale-to-zero guard clamps this
            to at least 1 -- a datacenter never disappears mid-day).
        max_servers: autoscaling ceiling; ``None`` means unbounded.
    """

    name: str
    region: Region
    num_servers: int
    parallelism: int
    service_mean_s: float
    policy: str = "jsq"
    service_distribution: str = "exponential"
    server_cost_monthly_usd: float = 280.0
    min_servers: int = 1
    max_servers: "int | None" = None

    def __post_init__(self) -> None:
        if self.num_servers < 1:
            raise ValueError("num_servers must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        require_positive_finite(service_mean_s=self.service_mean_s)
        if self.server_cost_monthly_usd < 0:
            raise ValueError("server_cost_monthly_usd must be >= 0")
        if self.min_servers < 1:
            raise ValueError("min_servers must be >= 1 (scale-to-zero guard)")
        if self.max_servers is not None and self.max_servers < self.min_servers:
            raise ValueError("max_servers must be >= min_servers")
        if self.num_servers < self.min_servers:
            raise ValueError("num_servers must be >= min_servers")
        if self.policy not in BALANCER_POLICIES:
            raise ValueError(
                f"policy must be one of {sorted(BALANCER_POLICIES)}, got {self.policy!r}"
            )

    def capacity_qps(self, servers: "int | None" = None) -> float:
        """Saturation throughput with ``servers`` deployed (default current)."""
        count = self.num_servers if servers is None else servers
        return count * self.parallelism / self.service_mean_s
