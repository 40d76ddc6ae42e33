"""Dependability studies: behavior of the service and NoC layers under faults.

Four beyond-the-paper studies (catalog chapter 9) make failures a first-class
experimental axis:

* :func:`service_fault_sweep` -- availability, goodput, and tail latency of a
  service cluster as the server crash intensity rises;
* :func:`service_mttr_sweep` -- the same cluster's dependability as repair
  time (MTTR) grows at fixed crash intensity;
* :func:`service_nk_sizing` -- N+k redundancy sizing per chip design:
  deployed servers, monthly TCO, and binomial cluster availability versus the
  number of tolerated concurrent failures;
* :func:`noc_fault_sweep` -- NoC latency and system performance as links fail
  and traffic reroutes around them.

Every fault schedule is drawn by a seeded
:class:`~repro.faults.generator.FaultLoadGenerator` in the parent process and
shipped to pool workers as frozen data, so serial and parallel sweeps are
bit-identical; the zero-fault sweep point carries an empty schedule and takes
exactly the un-faulted code path (byte-identical results).  The dict payloads
carry a ``"faults"`` block (generator seed plus the SHA-256 digest of every
schedule) that :func:`repro.experiments.registry.run_experiment` lifts into
envelope provenance and the CLI copies into the run ledger.
"""

from __future__ import annotations

import hashlib
import math
import numbers
from typing import Sequence

from repro.faults.events import FaultSchedule
from repro.faults.generator import FaultLoadConfig, FaultLoadGenerator
from repro.faults.noc import apply_link_faults, undirected_links
from repro.noc.simulation import PodNocStudy, _cached_topology
from repro.perfmodel.analytic import require_count, require_positive_finite
from repro.runtime.executor import SweepExecutor
from repro.service.cluster import ClusterConfig, simulate_cluster
from repro.service.sizing import ClusterSizer
from repro.tco.datacenter import DatacenterDesign
from repro.workloads.profile import WorkloadProfile
from repro.workloads.suite import WorkloadSuite, default_suite

from repro.experiments.service import SERVICE_DESIGNS, _server_capacity, build_service_chip

#: Default seed of the fault-load generator (independent of the request seed).
DEFAULT_FAULT_SEED = 7


def _combined_digest(schedules: "Sequence[FaultSchedule]") -> str:
    """One SHA-256 digest pinning every schedule of a sweep, in point order."""
    return hashlib.sha256(
        "\n".join(schedule.digest() for schedule in schedules).encode("ascii")
    ).hexdigest()


def _faults_block(seed: int, schedules: "Sequence[FaultSchedule]") -> "dict[str, object]":
    """The payload's ``"faults"`` provenance block."""
    return {
        "seed": seed,
        "digest": _combined_digest(schedules),
        "schedules": len(schedules),
        "events": sum(schedule.num_events for schedule in schedules),
    }


def _service_fault_point(
    axis: "dict[str, object]",
    num_servers: int,
    parallelism: int,
    service_mean_s: float,
    offered_qps: float,
    policy: str,
    num_requests: int,
    seed: int,
    schedule: FaultSchedule,
) -> "dict[str, object]":
    """One faulted cluster simulation (module-level: picklable).

    ``axis`` carries the sweep coordinates (crash intensity or MTTR fraction)
    verbatim into the row.  An empty schedule takes the un-faulted engine, so
    the zero-fault row is byte-identical to the pre-fault-subsystem result.
    """
    config = ClusterConfig(
        num_servers=num_servers,
        parallelism=parallelism,
        service_mean_s=service_mean_s,
        offered_qps=offered_qps,
        policy=policy,
    )
    result = simulate_cluster(
        config, num_requests=num_requests, seed=seed, faults=schedule
    )
    summary = result.latency.summary()
    dep = result.dependability
    row: "dict[str, object]" = {
        **axis,
        "availability": 1.0 if dep is None else round(dep.availability, 6),
        "goodput_qps": round(
            result.achieved_qps if dep is None else dep.goodput_qps, 1
        ),
        "goodput_fraction": 1.0 if dep is None else round(dep.goodput_fraction, 6),
        "p99_ms": round(summary["p99"], 3),
        "mean_ms": round(summary["mean"], 3),
        "crashes": 0 if dep is None else dep.crashes,
        "lost_requests": 0 if dep is None else dep.lost_requests,
        "unrouted_requests": 0 if dep is None else dep.unrouted_requests,
        "mean_time_to_recover_ms": (
            0.0 if dep is None else round(dep.mean_time_to_recover_s * 1e3, 3)
        ),
        "max_time_to_recover_ms": (
            0.0 if dep is None else round(dep.max_time_to_recover_s * 1e3, 3)
        ),
        "fault_events": schedule.num_events,
    }
    return row


def _service_fault_schedules(
    configs: "Sequence[FaultLoadConfig]",
    fault_seed: int,
    num_servers: int,
    horizon_s: float,
) -> "list[FaultSchedule]":
    """Schedules for a service fault sweep, one per fault-load config."""
    return [
        FaultLoadGenerator(config, seed=fault_seed).schedule(num_servers, horizon_s)
        for config in configs
    ]


def service_fault_sweep(
    design: str = "Scale-Out (OoO)",
    workload: str = "Web Search",
    crash_intensities: Sequence[float] = (0.0, 0.5, 1.0, 2.0, 4.0),
    mttr_fraction: float = 0.1,
    straggler_intensity: float = 0.0,
    straggler_slowdown: float = 4.0,
    utilization: float = 0.7,
    num_servers: int = 8,
    policy: str = "jsq",
    num_requests: int = 8_000,
    seed: int = 42,
    fault_seed: int = DEFAULT_FAULT_SEED,
    suite: "WorkloadSuite | None" = None,
    executor: "SweepExecutor | None" = None,
) -> "dict[str, object]":
    """Availability/goodput/tail latency versus server crash intensity.

    ``crash_intensity`` is the expected number of crashes per server over the
    run (the accelerated-clock fault load; see ``docs/faults.md``); each crash
    repairs after ``mttr_fraction`` of the run's horizon.  The zero-intensity
    point carries an empty schedule and is byte-identical to the un-faulted
    engine's result.
    """
    # All three set the fault horizon, num_requests / offered_qps.
    require_count("num_servers", num_servers, 1)
    require_count("num_requests", num_requests, 1)
    require_positive_finite(utilization=utilization)
    suite = suite or default_suite()
    executor = executor or SweepExecutor()
    capacity, parallelism = _server_capacity(design, workload, suite)
    offered_qps = utilization * num_servers * parallelism / capacity.service_mean_s
    horizon_s = num_requests / offered_qps
    schedules = _service_fault_schedules(
        [
            FaultLoadConfig(
                crash_intensity=intensity,
                mttr_fraction=mttr_fraction,
                straggler_intensity=straggler_intensity if intensity > 0 else 0.0,
                straggler_slowdown=straggler_slowdown,
            )
            for intensity in crash_intensities
        ],
        fault_seed,
        num_servers,
        horizon_s,
    )
    points = [
        (
            {"crash_intensity": intensity, "mttr_fraction": mttr_fraction},
            num_servers,
            parallelism,
            capacity.service_mean_s,
            offered_qps,
            policy,
            num_requests,
            seed,
            schedule,
        )
        for intensity, schedule in zip(crash_intensities, schedules)
    ]
    rows = executor.map(_service_fault_point, points)
    return {
        "sweep": [
            {"design": capacity.design, "workload": capacity.workload, **row}
            for row in rows
        ],
        "faults": _faults_block(fault_seed, schedules),
    }


def service_mttr_sweep(
    design: str = "Scale-Out (OoO)",
    workload: str = "Web Search",
    mttr_fractions: Sequence[float] = (0.02, 0.05, 0.1, 0.2, 0.4),
    crash_intensity: float = 1.0,
    utilization: float = 0.7,
    num_servers: int = 8,
    policy: str = "jsq",
    num_requests: int = 8_000,
    seed: int = 42,
    fault_seed: int = DEFAULT_FAULT_SEED,
    suite: "WorkloadSuite | None" = None,
    executor: "SweepExecutor | None" = None,
) -> "dict[str, object]":
    """MTTR sensitivity: dependability versus repair time at fixed crash rate.

    Longer repairs mean more accumulated downtime per crash, so availability
    falls monotonically as ``mttr_fraction`` grows (the crash clock pauses
    while a server is down, so crash *counts* shrink slightly -- downtime
    still wins).
    """
    # All three set the fault horizon, num_requests / offered_qps.
    require_count("num_servers", num_servers, 1)
    require_count("num_requests", num_requests, 1)
    require_positive_finite(utilization=utilization)
    suite = suite or default_suite()
    executor = executor or SweepExecutor()
    capacity, parallelism = _server_capacity(design, workload, suite)
    offered_qps = utilization * num_servers * parallelism / capacity.service_mean_s
    horizon_s = num_requests / offered_qps
    schedules = _service_fault_schedules(
        [
            FaultLoadConfig(crash_intensity=crash_intensity, mttr_fraction=fraction)
            for fraction in mttr_fractions
        ],
        fault_seed,
        num_servers,
        horizon_s,
    )
    points = [
        (
            {"mttr_fraction": fraction, "crash_intensity": crash_intensity},
            num_servers,
            parallelism,
            capacity.service_mean_s,
            offered_qps,
            policy,
            num_requests,
            seed,
            schedule,
        )
        for fraction, schedule in zip(mttr_fractions, schedules)
    ]
    rows = executor.map(_service_fault_point, points)
    return {
        "sweep": [
            {"design": capacity.design, "workload": capacity.workload, **row}
            for row in rows
        ],
        "faults": _faults_block(fault_seed, schedules),
    }


def _nk_sizing_point(
    design: str,
    workload_name: str,
    k: int,
    target_qps: float,
    sla_p99_ms: float,
    server_mtbf_h: float,
    server_mttr_h: float,
    memory_gb: int,
    suite: WorkloadSuite,
) -> "dict[str, object]":
    """Size one design's N+k cluster (module-level: picklable)."""
    chip = build_service_chip(design, suite)
    sizer = ClusterSizer(DatacenterDesign(suite=suite), memory_gb=memory_gb)
    result = sizer.size_n_plus_k(
        chip,
        suite[workload_name],
        target_qps=target_qps,
        sla_p99_s=sla_p99_ms / 1e3,
        k=k,
        server_mtbf_h=server_mtbf_h,
        server_mttr_h=server_mttr_h,
    )
    return {
        "design": result.design,
        "workload": result.workload,
        "k": result.k,
        "base_servers": result.base_servers,
        "servers": result.servers,
        "racks": result.racks,
        "utilization": round(result.utilization, 3),
        "p99_ms": round(result.p99_s * 1e3, 3),
        "degraded_p99_ms": round(result.degraded_p99_s * 1e3, 3),
        "server_availability": round(result.server_availability, 6),
        "cluster_availability": round(result.cluster_availability, 9),
        "monthly_tco_usd": round(result.monthly_tco_usd, 0),
        "base_monthly_tco_usd": round(result.base_monthly_tco_usd, 0),
        "redundancy_overhead": round(result.redundancy_overhead, 4),
    }


def service_nk_sizing(
    target_qps: float = 1_000_000.0,
    sla_p99_ms: float = 25.0,
    workload: str = "Web Search",
    designs: Sequence[str] = SERVICE_DESIGNS,
    ks: Sequence[int] = (0, 1, 2, 4),
    server_mtbf_h: float = 4380.0,
    server_mttr_h: float = 4.0,
    memory_gb: int = 64,
    suite: "WorkloadSuite | None" = None,
    executor: "SweepExecutor | None" = None,
) -> "list[dict[str, object]]":
    """N+k redundancy sizing per design: TCO and availability versus ``k``.

    ``k = 0`` reduces to :func:`repro.experiments.service.service_cluster_sizing`'s
    answer exactly; each extra tolerated failure adds one server (monotone
    TCO) and multiplies down the probability of an SLA-violating outage.
    """
    suite = suite or default_suite()
    executor = executor or SweepExecutor()
    points = [
        (
            design,
            workload,
            k,
            target_qps,
            sla_p99_ms,
            server_mtbf_h,
            server_mttr_h,
            memory_gb,
            suite,
        )
        for design in designs
        for k in ks
    ]
    return executor.map(_nk_sizing_point, points)


def _noc_fault_point(
    topology_name: str,
    cores: int,
    workload: WorkloadProfile,
    duration_cycles: int,
    seed: int,
    failed_links: int,
    degraded_links: int,
    schedule: FaultSchedule,
) -> "dict[str, object]":
    """Measure one faulted topology (module-level: picklable).

    The healthy topology comes from the shared per-process memo and is never
    mutated; :func:`apply_link_faults` returns it unchanged for the zero-fault
    point, so that row is byte-identical to the un-faulted NoC study.
    """
    study = PodNocStudy(cores=cores, duration_cycles=duration_cycles, seed=seed)
    topology = apply_link_faults(
        _cached_topology(topology_name, cores), schedule.link_faults
    )
    request_latency, packet_latency, hops, util = study.measure_latency(
        topology, workload
    )
    return {
        "topology": topology_name,
        "workload": workload.name,
        "failed_links": failed_links,
        "degraded_links": degraded_links,
        "links": topology.num_links,
        "request_latency_cycles": round(request_latency, 3),
        "packet_latency_cycles": round(packet_latency, 3),
        "average_hops": round(hops, 3),
        "system_ipc": round(study.system_performance(workload, request_latency), 3),
        "max_link_utilization": round(util, 4),
        "fault_events": schedule.num_events,
    }


_INT64_MAX = 2**63 - 1


def noc_fault_sweep(
    topology: str = "mesh",
    cores: int = 64,
    workload: str = "Web Search",
    failed_links: Sequence[int] = (0, 1, 2, 4, 8),
    degraded_links: int = 0,
    degradation_factor: float = 4.0,
    duration_cycles: int = 6_000,
    seed: int = 1,
    fault_seed: int = DEFAULT_FAULT_SEED,
    suite: "WorkloadSuite | None" = None,
    executor: "SweepExecutor | None" = None,
) -> "dict[str, object]":
    """NoC latency and system IPC as links fail and traffic reroutes.

    Each sweep point takes ``f`` links down (plus ``degraded_links`` slowed
    by ``degradation_factor``); the faulted topology drops the oblivious
    routing function and routes around missing links on weighted shortest
    paths.  A link whose removal would partition cores from LLC banks is
    heavily degraded instead of removed.
    """
    healthy = _cached_topology(topology, cores)
    # A degraded link's latency becomes ceil(latency * factor), and the NoC
    # kernel keeps link latencies in an int64 table.
    longest = max(healthy.link(a, b).latency_cycles for a, b in healthy.links())
    if (
        isinstance(degradation_factor, bool)
        or not isinstance(degradation_factor, numbers.Real)
        or not 1 <= degradation_factor < math.inf
        or math.ceil(longest * degradation_factor) > _INT64_MAX
    ):
        raise ValueError(
            "degradation_factor must be a finite number >= 1 that keeps every degraded "
            f"link latency within int64 (about {_INT64_MAX / longest:.3g} on this "
            f"topology), got {degradation_factor!r}"
        )
    suite = suite or default_suite()
    executor = executor or SweepExecutor()
    profile = suite[workload]
    links = undirected_links(healthy)
    schedules = [
        FaultLoadGenerator(
            FaultLoadConfig(
                num_failed_links=count,
                num_degraded_links=degraded_links if count > 0 else 0,
                link_degradation_factor=degradation_factor,
            ),
            seed=fault_seed,
        ).schedule(1, 1.0, links=links)
        for count in failed_links
    ]
    points = [
        (
            topology,
            cores,
            profile,
            duration_cycles,
            seed,
            count,
            degraded_links if count > 0 else 0,
            schedule,
        )
        for count, schedule in zip(failed_links, schedules)
    ]
    rows = executor.map(_noc_fault_point, points)
    return {
        "sweep": rows,
        "faults": _faults_block(fault_seed, schedules),
    }
