"""Analytic M/M/k queueing and SLA-driven cluster sizing.

The sizing layer answers the capacity-planning question behind Chapter 5's TCO
comparison: *how many servers (and dollars per month) does each chip design
need to serve N QPS within a p99 latency SLA?*

Each server is modeled as an M/M/k station -- ``k`` service units (usable
cores x sockets) at per-unit rate ``mu`` -- fed an even share of the offered
load (a random split of a Poisson stream is Poisson).  The closed-form
Erlang-C machinery gives the waiting probability, mean wait, and the full
sojourn-time distribution, whose 99th percentile drives a monotone
minimum-server search.  Monthly cost then comes from the existing
:mod:`repro.tco` models: rack packing via :class:`~repro.tco.server.ServerDesign`
and the four-category EETCO breakdown via :class:`~repro.tco.model.TcoModel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from repro.core.chip import ScaleOutChip
from repro.service.calibration import ServiceCapacity, calibrate_chip
from repro.tco.datacenter import DatacenterDesign
from repro.tco.model import TcoBreakdown
from repro.workloads.profile import WorkloadProfile

#: ln(100): zero-load p99 of an exponential service time, in units of the mean.
_EXP_P99_FACTOR = math.log(100.0)


def erlang_b(servers: int, offered_load: float) -> float:
    """Erlang-B blocking probability for ``servers`` lines at ``offered_load`` (erlangs).

    Computed with the standard numerically stable recurrence, valid for
    hundreds of servers where the naive factorial form overflows.
    """
    if servers < 1:
        raise ValueError("servers must be >= 1")
    if offered_load < 0:
        raise ValueError("offered_load must be non-negative")
    if offered_load == 0:
        return 0.0
    blocking = 1.0
    for line in range(1, servers + 1):
        blocking = offered_load * blocking / (line + offered_load * blocking)
    return blocking


def erlang_c(servers: int, offered_load: float) -> float:
    """Erlang-C probability that an arrival must wait (M/M/k, FCFS).

    Returns 1.0 for saturated systems (``offered_load >= servers``), where
    every arrival waits.
    """
    if offered_load >= servers:
        return 1.0
    blocking = erlang_b(servers, offered_load)
    rho = offered_load / servers
    return blocking / (1.0 - rho * (1.0 - blocking))


@dataclass(frozen=True)
class MmkQueue:
    """An M/M/k queue: ``servers`` units at ``service_rate_rps`` each.

    Unstable configurations (utilization >= 1) are representable; their wait
    and latency metrics are ``inf`` so sizing searches can treat stability and
    SLA feasibility uniformly.
    """

    servers: int
    service_rate_rps: float
    arrival_rate_rps: float

    def __post_init__(self) -> None:
        if self.servers < 1:
            raise ValueError("servers must be >= 1")
        if self.service_rate_rps <= 0:
            raise ValueError("service_rate_rps must be positive")
        if self.arrival_rate_rps < 0:
            raise ValueError("arrival_rate_rps must be non-negative")

    @property
    def offered_load(self) -> float:
        """Offered traffic in erlangs (lambda / mu)."""
        return self.arrival_rate_rps / self.service_rate_rps

    @property
    def utilization(self) -> float:
        """Per-unit utilization rho = lambda / (k mu)."""
        return self.offered_load / self.servers

    @cached_property
    def wait_probability(self) -> float:
        """Probability an arriving request queues (Erlang-C).

        Cached: the O(k) Erlang-B recurrence is constant per instance but is
        consulted on every bisection step of :meth:`latency_quantile`.
        """
        return erlang_c(self.servers, self.offered_load)

    @property
    def mean_wait_s(self) -> float:
        """Mean time spent waiting in queue."""
        if self.utilization >= 1.0:
            return math.inf
        drain_rate = self.servers * self.service_rate_rps - self.arrival_rate_rps
        return self.wait_probability / drain_rate

    @property
    def mean_latency_s(self) -> float:
        """Mean sojourn time (wait plus service)."""
        return self.mean_wait_s + 1.0 / self.service_rate_rps

    def latency_survival(self, t: float) -> float:
        """P(sojourn time > t) for FCFS M/M/k.

        The sojourn is the independent sum of the queueing wait (an atom at
        zero plus an exponential of rate ``k mu - lambda``) and the service
        time (exponential of rate ``mu``).
        """
        if t <= 0:
            return 1.0
        if self.utilization >= 1.0:
            return 1.0
        mu = self.service_rate_rps
        theta = self.servers * mu - self.arrival_rate_rps
        wait_p = self.wait_probability
        no_wait = (1.0 - wait_p) * math.exp(-mu * t)
        if abs(theta - mu) < 1e-12 * mu:
            with_wait = wait_p * (1.0 + mu * t) * math.exp(-mu * t)
        else:
            with_wait = (
                wait_p
                * (theta * math.exp(-mu * t) - mu * math.exp(-theta * t))
                / (theta - mu)
            )
        return no_wait + with_wait

    def latency_quantile(self, fraction: float = 0.99) -> float:
        """Sojourn-time quantile (e.g. the p99 latency), by bisection."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        if self.utilization >= 1.0:
            return math.inf
        target = 1.0 - fraction
        hi = self.mean_latency_s
        while self.latency_survival(hi) > target:
            hi *= 2.0
        lo = 0.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if self.latency_survival(mid) > target:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def saturation_qps(servers: int, service_rate_rps: float, sla_p99_s: float) -> float:
    """Largest Poisson arrival rate an M/M/k station serves within the p99 SLA."""
    zero_load_p99 = _EXP_P99_FACTOR / service_rate_rps
    if zero_load_p99 > sla_p99_s:
        return 0.0
    lo, hi = 0.0, servers * service_rate_rps
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        queue = MmkQueue(servers, service_rate_rps, mid)
        if queue.latency_quantile(0.99) <= sla_p99_s:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class SizingResult:
    """Minimum cluster (and its cost) serving a QPS target within the SLA."""

    design: str
    workload: str
    target_qps: float
    servers: int
    racks: int
    sockets_per_server: int
    units_per_server: int
    unit_rate_rps: float
    utilization: float
    p99_s: float
    mean_latency_s: float
    monthly_tco_usd: float
    tco_breakdown: TcoBreakdown

    @property
    def server_capacity_qps(self) -> float:
        """Saturation throughput of one server."""
        return self.units_per_server * self.unit_rate_rps

    @property
    def tco_per_million_qps(self) -> float:
        """Monthly dollars per million requests/second served."""
        return self.monthly_tco_usd / (self.target_qps / 1e6)


@dataclass(frozen=True)
class RedundantSizingResult:
    """Minimum N+k cluster: meets the SLA even with ``k`` servers down.

    ``servers`` is the deployed count ``n``; the survivability requirement is
    that the surviving ``n - k`` servers still serve ``target_qps`` within the
    p99 SLA.  Because per-server p99 falls monotonically in the server count,
    the minimal such ``n`` is exactly ``base_servers + k`` -- the un-faulted
    :meth:`ClusterSizer.size` answer plus one spare per tolerated failure --
    so ``k = 0`` reduces to today's sizing bit-for-bit.
    """

    design: str
    workload: str
    target_qps: float
    k: int
    base_servers: int
    servers: int
    racks: int
    utilization: float
    p99_s: float
    degraded_p99_s: float
    server_availability: float
    cluster_availability: float
    monthly_tco_usd: float
    base_monthly_tco_usd: float
    tco_breakdown: TcoBreakdown

    @property
    def redundancy_overhead(self) -> float:
        """Fractional monthly-TCO premium over the k=0 cluster."""
        if self.base_monthly_tco_usd <= 0:
            return 0.0
        return self.monthly_tco_usd / self.base_monthly_tco_usd - 1.0


def cluster_availability(servers: int, k: int, server_availability: float) -> float:
    """P(at most ``k`` of ``servers`` i.i.d. servers are down simultaneously).

    The cluster meets its SLA while no more than ``k`` servers are failed
    (that is what the N+k sizing guarantees), so this binomial tail is the
    steady-state probability the deployed cluster is SLA-capable.
    """
    if not 0.0 <= server_availability <= 1.0:
        raise ValueError("server_availability must be in [0, 1]")
    if k < 0:
        raise ValueError("k must be >= 0")
    q = 1.0 - server_availability
    return min(
        1.0,
        sum(
            math.comb(servers, i) * (q**i) * (server_availability ** (servers - i))
            for i in range(min(k, servers) + 1)
        ),
    )


class SlaInfeasibleError(ValueError):
    """The SLA cannot be met at any cluster size (or within the search bound)."""


class ClusterSizer:
    """SLA-driven minimum-cluster search combining queueing and TCO models."""

    def __init__(
        self,
        datacenter: "DatacenterDesign | None" = None,
        memory_gb: int = 64,
        max_servers: int = 10_000_000,
    ):
        self.datacenter = datacenter or DatacenterDesign()
        self.memory_gb = memory_gb
        self.max_servers = max_servers

    # ------------------------------------------------------------- queueing
    def server_queue(
        self, capacity: ServiceCapacity, sockets: int, per_server_qps: float
    ) -> MmkQueue:
        """The M/M/k model of one server at the given share of load."""
        return MmkQueue(
            servers=capacity.units_per_chip * sockets,
            service_rate_rps=capacity.unit_rate_rps,
            arrival_rate_rps=per_server_qps,
        )

    def minimum_servers(
        self, capacity: ServiceCapacity, sockets: int, target_qps: float, sla_p99_s: float
    ) -> int:
        """Smallest server count whose per-server p99 meets the SLA.

        The offered load splits evenly (each server sees an independent Poisson
        stream of ``target_qps / n``); per-server p99 falls monotonically in
        ``n``, so an exponential probe plus binary search finds the minimum.
        """
        zero_load_p99 = _EXP_P99_FACTOR / capacity.unit_rate_rps
        if zero_load_p99 > sla_p99_s:
            raise SlaInfeasibleError(
                f"SLA p99 of {sla_p99_s * 1e3:.2f} ms is below the zero-load p99 "
                f"of {zero_load_p99 * 1e3:.2f} ms for {capacity.workload!r} on "
                f"{capacity.design!r}; no cluster size can meet it"
            )

        def p99(n: int) -> float:
            """Per-server p99 latency with the load split over ``n`` servers."""
            return self.server_queue(capacity, sockets, target_qps / n).latency_quantile(0.99)

        units = capacity.units_per_chip * sockets
        stability_floor = max(
            1, math.ceil(target_qps / (units * capacity.unit_rate_rps))
        )
        lo, hi = 0, stability_floor
        while p99(hi) > sla_p99_s:
            lo = hi
            hi *= 2
            if hi > self.max_servers:
                raise SlaInfeasibleError(
                    f"no cluster of up to {self.max_servers} servers meets a "
                    f"{sla_p99_s * 1e3:.2f} ms p99 at {target_qps:.0f} QPS for "
                    f"{capacity.workload!r} on {capacity.design!r}"
                )
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if p99(mid) <= sla_p99_s:
                hi = mid
            else:
                lo = mid
        return hi

    # ---------------------------------------------------------------- sizing
    def size(
        self,
        chip: ScaleOutChip,
        workload: WorkloadProfile,
        target_qps: float,
        sla_p99_s: float,
    ) -> SizingResult:
        """Size and cost the minimum cluster of ``chip`` servers for the SLA."""
        if target_qps <= 0:
            raise ValueError("target_qps must be positive")
        if sla_p99_s <= 0:
            raise ValueError("sla_p99_s must be positive")
        capacity = calibrate_chip(chip, workload)
        server = self.datacenter.build_server(chip, memory_gb=self.memory_gb)
        servers = self.minimum_servers(capacity, server.sockets, target_qps, sla_p99_s)
        queue = self.server_queue(capacity, server.sockets, target_qps / servers)
        racks = max(1, math.ceil(servers / server.servers_per_rack()))
        price = self.datacenter.pricing.price(chip.name, chip.die_area_mm2)
        tco = self.datacenter.tco_model.monthly_tco(server, servers, racks, price)
        return SizingResult(
            design=chip.name,
            workload=capacity.workload,
            target_qps=target_qps,
            servers=servers,
            racks=racks,
            sockets_per_server=server.sockets,
            units_per_server=queue.servers,
            unit_rate_rps=capacity.unit_rate_rps,
            utilization=queue.utilization,
            p99_s=queue.latency_quantile(0.99),
            mean_latency_s=queue.mean_latency_s,
            monthly_tco_usd=tco.total,
            tco_breakdown=tco,
        )

    def size_n_plus_k(
        self,
        chip: ScaleOutChip,
        workload: WorkloadProfile,
        target_qps: float,
        sla_p99_s: float,
        k: int = 1,
        server_mtbf_h: float = 4380.0,
        server_mttr_h: float = 4.0,
    ) -> RedundantSizingResult:
        """Minimum monthly-TCO cluster that meets the SLA with ``k`` servers down.

        Args:
            chip: the server chip design.
            workload: the service workload profile.
            target_qps: offered load the *surviving* servers must carry.
            sla_p99_s: the p99 latency SLA.
            k: concurrent server failures the cluster must survive (``k=0``
                reduces to :meth:`size` exactly).
            server_mtbf_h: per-server mean time between failures, hours
                (drives the availability estimate only, not the size).
            server_mttr_h: per-server mean time to repair, hours.

        Returns:
            The deployed ``base + k`` cluster with nominal and degraded p99,
            binomial cluster availability, and its TCO next to the k=0 TCO.
        """
        if k < 0:
            raise ValueError("k must be >= 0")
        if server_mtbf_h <= 0 or server_mttr_h < 0:
            raise ValueError("server_mtbf_h must be positive and server_mttr_h >= 0")
        base = self.size(chip, workload, target_qps, sla_p99_s)
        servers = base.servers + k
        capacity = calibrate_chip(chip, workload)
        server = self.datacenter.build_server(chip, memory_gb=self.memory_gb)
        nominal = self.server_queue(capacity, server.sockets, target_qps / servers)
        racks = max(1, math.ceil(servers / server.servers_per_rack()))
        price = self.datacenter.pricing.price(chip.name, chip.die_area_mm2)
        tco = self.datacenter.tco_model.monthly_tco(server, servers, racks, price)
        availability = server_mtbf_h / (server_mtbf_h + server_mttr_h)
        return RedundantSizingResult(
            design=chip.name,
            workload=capacity.workload,
            target_qps=target_qps,
            k=k,
            base_servers=base.servers,
            servers=servers,
            racks=racks,
            utilization=nominal.utilization,
            p99_s=nominal.latency_quantile(0.99),
            # With k servers down the survivors are exactly the base cluster.
            degraded_p99_s=base.p99_s,
            server_availability=availability,
            cluster_availability=cluster_availability(servers, k, availability),
            monthly_tco_usd=tco.total,
            base_monthly_tco_usd=base.monthly_tco_usd,
            tco_breakdown=tco,
        )
