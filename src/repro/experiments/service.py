"""Service-level experiments: load-latency curves and SLA-driven sizing.

These studies go beyond the paper's chip-level evaluation: they put clusters of
the Chapter 5 server designs behind a load balancer and measure what the
latency-sensitive cloud traffic the paper targets actually experiences.

* :func:`service_latency_sweep` -- simulated load-latency curve for one design:
  p99 (and friends) versus offered load, with the analytic M/M/k reference.
* :func:`service_policy_comparison` -- load-balancing policies head-to-head at
  equal load (random / round-robin / power-of-two / join-shortest-queue).
* :func:`service_cluster_sizing` -- servers and dollars per month each chip
  design needs to serve a QPS target within a p99 SLA (queueing + TCO models).

Each simulated sweep point is independent, so the functions fan out over a
:class:`~repro.runtime.SweepExecutor` exactly like the chapter experiments.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.chip import ScaleOutChip
from repro.core.designs import build_conventional, build_scale_out
from repro.core.methodology import ScaleOutDesignMethodology
from repro.perfmodel.analytic import AnalyticPerformanceModel, require_positive_finite
from repro.runtime.executor import SweepExecutor
from repro.service.cluster import BALANCER_POLICIES
from repro.service.calibration import ServiceCapacity, calibrate_chip
from repro.service.cluster import ClusterConfig, simulate_cluster
from repro.service.sizing import ClusterSizer, MmkQueue, saturation_qps
from repro.tco.datacenter import DatacenterDesign
from repro.technology.node import NODE_40NM
from repro.three_d.designer import ThreeDDesignStudy
from repro.workloads.suite import WorkloadSuite, default_suite

#: Default designs compared by the sizing study (Chapter 5 + Chapter 6 chips).
SERVICE_DESIGNS = ("Conventional", "Scale-Out (OoO)", "Scale-Out 3D (OoO)")


def build_service_chip(
    design: str,
    suite: "WorkloadSuite | None" = None,
    model: "AnalyticPerformanceModel | None" = None,
) -> ScaleOutChip:
    """Build one of the named server-chip designs the service studies compare."""
    suite = suite or default_suite()
    model = model or AnalyticPerformanceModel()
    name = design.lower()
    if name.startswith("conventional"):
        return build_conventional(NODE_40NM, model, suite)
    if "3d" in name:
        methodology = ScaleOutDesignMethodology(suite=suite)
        base_pod = methodology.pd_optimal_pod(core_type="ooo").pod
        study = ThreeDDesignStudy(suite=suite)
        best = study.best_strategy(base_pod, num_dies=2)
        chip = study.compose_chip(best.stacked_pod, name="Scale-Out 3D (OoO)")
        return chip
    if name.startswith("scale-out"):
        return build_scale_out("ooo", NODE_40NM, model, suite)
    raise ValueError(f"unknown service design {design!r}; known: {SERVICE_DESIGNS}")


def _server_capacity(
    design: str, workload: str, suite: WorkloadSuite, memory_gb: int = 64
) -> "tuple[ServiceCapacity, int]":
    """(chip capacity, service units per server) for one design and workload.

    A "server" throughout the service studies is the Chapter 5 1U box: the
    chip's usable cores times the sockets the server-design model fits into
    the per-server power budget -- the same convention the sizing layer uses.
    """
    chip = build_service_chip(design, suite)
    capacity = calibrate_chip(chip, suite[workload])
    server = DatacenterDesign().build_server(chip, memory_gb=memory_gb)
    return capacity, capacity.units_per_chip * server.sockets


def _latency_point(
    utilization: float,
    num_servers: int,
    parallelism: int,
    service_mean_s: float,
    policy: str,
    arrival: str,
    service_distribution: str,
    num_requests: int,
    seed: int,
) -> "dict[str, object]":
    """One simulated point of the load-latency curve (module-level: picklable)."""
    capacity_qps = num_servers * parallelism / service_mean_s
    config = ClusterConfig(
        num_servers=num_servers,
        parallelism=parallelism,
        service_mean_s=service_mean_s,
        offered_qps=utilization * capacity_qps,
        policy=policy,
        arrival=arrival,
        service_distribution=service_distribution,
    )
    result = simulate_cluster(config, num_requests=num_requests, seed=seed)
    reference = MmkQueue(
        servers=parallelism,
        service_rate_rps=1.0 / service_mean_s,
        arrival_rate_rps=config.offered_qps / num_servers,
    )
    reference_p99 = reference.latency_quantile(0.99)
    summary = result.latency.summary()
    return {
        "utilization": utilization,
        "offered_qps": round(config.offered_qps, 1),
        "mean_ms": round(summary["mean"], 3),
        "p50_ms": round(summary["p50"], 3),
        "p95_ms": round(summary["p95"], 3),
        "p99_ms": round(summary["p99"], 3),
        # None past saturation: the open queue has no steady state there.
        "mmk_p99_ms": round(reference_p99 * 1e3, 3) if math.isfinite(reference_p99) else None,
        "achieved_qps": round(result.achieved_qps, 1),
    }


def service_latency_sweep(
    design: str = "Scale-Out (OoO)",
    workload: str = "Web Search",
    utilizations: Sequence[float] = (0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 0.95, 0.98, 1.02, 1.1),
    num_servers: int = 8,
    policy: str = "random",
    arrival: str = "poisson",
    service_distribution: str = "exponential",
    num_requests: int = 16_000,
    seed: int = 42,
    suite: "WorkloadSuite | None" = None,
    executor: "SweepExecutor | None" = None,
) -> "list[dict[str, object]]":
    """Load-latency curve for a cluster of ``design`` servers running ``workload``.

    Per-request service rates are calibrated from the analytic performance
    model; the default ``random`` policy splits the Poisson stream into
    independent per-server Poisson streams, which keeps the simulated curve
    directly comparable to the analytic M/M/k reference column -- and, because
    every load level replays the same seeded per-request work over a compressed
    arrival pattern, simulated p99 rises monotonically with offered load.
    """
    if isinstance(utilizations, str) or not isinstance(utilizations, Sequence) or not utilizations:
        raise ValueError(
            "utilizations must be a non-empty sequence of positive, finite numbers, "
            f"got {utilizations!r}"
        )
    # Loads above 1 stay legal: the sweep deliberately runs past saturation.
    require_positive_finite(
        **{f"utilizations[{index}]": value for index, value in enumerate(utilizations)}
    )
    suite = suite or default_suite()
    executor = executor or SweepExecutor()
    capacity, parallelism = _server_capacity(design, workload, suite)
    points = [
        (
            utilization,
            num_servers,
            parallelism,
            capacity.service_mean_s,
            policy,
            arrival,
            service_distribution,
            num_requests,
            seed,
        )
        for utilization in utilizations
    ]
    rows = executor.map(_latency_point, points)
    return [
        {"design": capacity.design, "workload": capacity.workload, **row}
        for row in rows
    ]


def _policy_point(
    policy: str,
    utilization: float,
    num_servers: int,
    parallelism: int,
    service_mean_s: float,
    arrival: str,
    service_distribution: str,
    num_requests: int,
    seed: int,
) -> "dict[str, object]":
    """One policy's latency profile at fixed load (module-level: picklable)."""
    config = ClusterConfig(
        num_servers=num_servers,
        parallelism=parallelism,
        service_mean_s=service_mean_s,
        offered_qps=utilization * num_servers * parallelism / service_mean_s,
        policy=policy,
        arrival=arrival,
        service_distribution=service_distribution,
    )
    result = simulate_cluster(config, num_requests=num_requests, seed=seed)
    summary = result.latency.summary()
    # Include servers that saw no measured traffic, so starvation shows up as
    # the extreme imbalance it is instead of being dropped from the ratio.
    counts = [result.per_server_counts.get(i, 0) for i in range(num_servers)]
    return {
        "policy": policy,
        "utilization": utilization,
        "mean_ms": round(summary["mean"], 3),
        "p95_ms": round(summary["p95"], 3),
        "p99_ms": round(summary["p99"], 3),
        "max_ms": round(summary["max"], 3),
        "request_imbalance": round(max(counts) / max(1, min(counts)), 3),
    }


def service_policy_comparison(
    design: str = "Scale-Out (OoO)",
    workload: str = "Web Search",
    policies: Sequence[str] = ("random", "round_robin", "po2", "jsq"),
    utilization: float = 0.85,
    num_servers: int = 8,
    arrival: str = "poisson",
    service_distribution: str = "exponential",
    num_requests: int = 8_000,
    seed: int = 42,
    suite: "WorkloadSuite | None" = None,
    executor: "SweepExecutor | None" = None,
) -> "list[dict[str, object]]":
    """Load-balancing policies head-to-head at equal offered load."""
    if isinstance(policies, str) or not isinstance(policies, Sequence) or not policies:
        raise ValueError(
            f"policies must be a non-empty sequence of balancer policy names, got {policies!r}"
        )
    for index, policy in enumerate(policies):
        if not isinstance(policy, str) or policy not in BALANCER_POLICIES:
            raise ValueError(
                f"policies[{index}] must be one of {sorted(BALANCER_POLICIES)}, got {policy!r}"
            )
    require_positive_finite(utilization=utilization)
    suite = suite or default_suite()
    executor = executor or SweepExecutor()
    capacity, parallelism = _server_capacity(design, workload, suite)
    points = [
        (
            policy,
            utilization,
            num_servers,
            parallelism,
            capacity.service_mean_s,
            arrival,
            service_distribution,
            num_requests,
            seed,
        )
        for policy in policies
    ]
    rows = executor.map(_policy_point, points)
    return [
        {"design": capacity.design, "workload": capacity.workload, **row}
        for row in rows
    ]


def _sizing_point(
    design: str,
    workload_name: str,
    target_qps: float,
    sla_p99_ms: float,
    memory_gb: int,
    suite: WorkloadSuite,
) -> "dict[str, object]":
    """Size one design's cluster (module-level: picklable).

    The suite's profiles (frozen dataclasses) ship to the worker directly; the
    chip build is deterministic and cheap relative to the sizing search.
    """
    chip = build_service_chip(design, suite)
    sizer = ClusterSizer(DatacenterDesign(), memory_gb=memory_gb)
    result = sizer.size(
        chip, suite[workload_name], target_qps=target_qps, sla_p99_s=sla_p99_ms / 1e3
    )
    server_qps = result.server_capacity_qps
    return {
        "design": result.design,
        "workload": result.workload,
        "target_qps": int(result.target_qps),
        "sla_p99_ms": sla_p99_ms,
        "servers": result.servers,
        "racks": result.racks,
        "sockets_per_server": result.sockets_per_server,
        "units_per_server": result.units_per_server,
        "utilization": round(result.utilization, 3),
        "p99_ms": round(result.p99_s * 1e3, 3),
        "saturation_qps_per_server": round(
            saturation_qps(
                result.units_per_server, result.unit_rate_rps, sla_p99_ms / 1e3
            ),
            1,
        ),
        "server_capacity_qps": round(server_qps, 1),
        "monthly_tco_usd": round(result.monthly_tco_usd, 0),
        "tco_per_million_qps_usd": round(result.tco_per_million_qps, 0),
    }


def service_cluster_sizing(
    target_qps: float = 1_000_000.0,
    sla_p99_ms: float = 25.0,
    workload: str = "Web Search",
    designs: Sequence[str] = SERVICE_DESIGNS,
    memory_gb: int = 64,
    suite: "WorkloadSuite | None" = None,
    executor: "SweepExecutor | None" = None,
) -> "list[dict[str, object]]":
    """Servers and monthly TCO each design needs for ``target_qps`` at the SLA."""
    suite = suite or default_suite()
    executor = executor or SweepExecutor()
    points = [
        (design, workload, target_qps, sla_p99_ms, memory_gb, suite)
        for design in designs
    ]
    return executor.map(_sizing_point, points)
