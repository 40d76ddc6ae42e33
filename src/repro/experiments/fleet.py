"""Fleet studies: geo-routing, diurnal load, and autoscaling economics.

Four beyond-the-paper studies (catalog chapter 10) lift the Chapter 5 server
designs from one cluster to a multi-datacenter fleet:

* :func:`fleet_diurnal_day` -- a compressed diurnal day across three
  datacenters: per-epoch load, deployed capacity, and tail latency;
* :func:`fleet_autoscale_policies` -- static peak provisioning versus
  reactive autoscaling (target-utilization and queue-depth triggers), graded
  on monthly TCO against per-class SLA attainment;
* :func:`fleet_geo_routing` -- nearest / latency-weighted / spillover
  routing under geographically skewed demand;
* :func:`fleet_class_priorities` -- the prioritized request mix: interactive
  versus batch tail latency under spillover routing.

Every datacenter runs servers calibrated from the paper's Scale-Out (OoO)
chip (same convention as the chapter-7 service studies), so fleet capacities
inherit the analytic performance model.  Fleet days run on the vectorized
service kernels; the discrete-event oracle in ``tests/oracles`` reproduces
any row bit-identically (the contract ``tests/test_fleet_equivalence.py``
enforces).
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.fleet.engine import FleetConfig, FleetSimulation
from repro.fleet.geo import Datacenter, Region
from repro.fleet.loadshape import DIURNAL_24, LoadShape
from repro.fleet.metrics import LatencyHistogram
from repro.runtime.executor import SweepExecutor
from repro.workloads.suite import WorkloadSuite, default_suite

from repro.experiments.service import _server_capacity

#: The default fleet layout: (name, x, y) site coordinates in abstract
#: geography units (one unit is ~4 ms of one-way network latency) and the
#: share of fleet demand used to provision each site.
FLEET_LAYOUT = (
    ("us-east", 0.0, 0.0, 0.40),
    ("eu-west", 1.5, 0.4, 0.35),
    ("ap-south", 3.0, -0.5, 0.25),
)

#: Provisioning setpoint: sites are sized so the day's *peak* epoch lands at
#: this utilization when demand follows the provisioning weights.
PROVISION_UTILIZATION = 0.55

#: Service units per simulated fleet server.  The catalog studies simulate a
#: *scale replica* of each site: a fleet "server" is a 4-unit slice of the
#: 96-unit calibrated Scale-Out box, which preserves per-request service
#: times and utilization trajectories while keeping the default day's request
#: count small enough for the report-regeneration path.  Pass the calibrated
#: parallelism (96) for full-size servers.
REPLICA_UNITS_PER_SERVER = 4


def _build_fleet(
    design: str,
    workload: str,
    suite: WorkloadSuite,
    offered_qps: float,
    peak_multiplier: float,
    policy: str,
    units_per_server: int = REPLICA_UNITS_PER_SERVER,
    layout: "tuple[tuple[str, float, float, float], ...]" = FLEET_LAYOUT,
) -> "tuple[Datacenter, ...]":
    """Datacenters provisioned for the day's peak at the setpoint utilization.

    Per-request service times come from the chapter-5 chip calibration, so
    the fleet inherits the paper's server designs; ``units_per_server``
    picks the replica scale (see :data:`REPLICA_UNITS_PER_SERVER`).
    """
    capacity, _ = _server_capacity(design, workload, suite)
    per_server_qps = units_per_server / capacity.service_mean_s
    datacenters = []
    for name, x, y, weight in layout:
        peak_qps = offered_qps * peak_multiplier * weight
        servers = max(1, math.ceil(peak_qps / (PROVISION_UTILIZATION * per_server_qps)))
        datacenters.append(
            Datacenter(
                name=name,
                region=Region(name, x, y),
                num_servers=servers,
                parallelism=units_per_server,
                service_mean_s=capacity.service_mean_s,
                policy=policy,
                # A site's building/power envelope: autoscalers can burst to
                # at most twice the peak-provisioned footprint.
                max_servers=2 * servers,
            )
        )
    return tuple(datacenters)


def _day_shape(epoch_s: float) -> LoadShape:
    """The 24-epoch diurnal shape compressed to ``epoch_s``-wide epochs."""
    return LoadShape(DIURNAL_24.multipliers, epoch_s=epoch_s)


def fleet_diurnal_day(
    design: str = "Scale-Out (OoO)",
    workload: str = "Web Search",
    offered_qps: float = 9_000.0,
    epoch_s: float = 2.0,
    policy: str = "jsq",
    routing: str = "nearest",
    seed: int = 42,
    suite: "WorkloadSuite | None" = None,
) -> "list[dict[str, object]]":
    """One compressed diurnal day: per-(epoch, datacenter) load and latency.

    The 24-hour shape is compressed to ``epoch_s``-wide epochs (the default
    2 s keeps the catalog run cheap); rates scale with real time, so the
    utilization trajectory -- and the peak-vs-trough tail-latency spread the
    chapter-10 claims grade -- is the full day's.  Each epoch emits one row
    per datacenter plus a ``datacenter="fleet"`` aggregate row.
    """
    suite = suite or default_suite()
    shape = _day_shape(epoch_s)
    datacenters = _build_fleet(
        design, workload, suite, offered_qps, shape.multiplier(shape.peak_epoch),
        policy,
    )
    config = FleetConfig(
        datacenters=datacenters,
        offered_qps=offered_qps,
        routing=routing,
        load_shape=shape,
    )
    result = FleetSimulation(config, seed=seed).run()
    parallelism = {dc.name: dc.parallelism for dc in datacenters}
    rows: "list[dict[str, object]]" = []
    for epoch in range(config.epochs):
        cells = result.epoch_stats[
            epoch * len(datacenters) : (epoch + 1) * len(datacenters)
        ]
        fleet_hist = LatencyHistogram()
        for stats in cells:
            summary = stats.histogram.summary_ms()
            rows.append(
                {
                    "epoch": epoch,
                    "datacenter": stats.datacenter,
                    "multiplier": round(shape.multiplier(epoch), 4),
                    "servers": stats.servers,
                    "offered_qps": round(stats.offered_qps, 1),
                    "requests": stats.requests,
                    "utilization": round(
                        stats.utilization(parallelism[stats.datacenter], epoch_s), 4
                    ),
                    "mean_ms": round(summary["mean"], 3),
                    "p99_ms": round(summary["p99"], 3),
                }
            )
            fleet_hist.merge(stats.histogram)
        fleet_summary = fleet_hist.summary_ms()
        deployed = sum(
            stats.servers * parallelism[stats.datacenter] * epoch_s for stats in cells
        )
        rows.append(
            {
                "epoch": epoch,
                "datacenter": "fleet",
                "multiplier": round(shape.multiplier(epoch), 4),
                "servers": sum(stats.servers for stats in cells),
                "offered_qps": round(sum(stats.offered_qps for stats in cells), 1),
                "requests": sum(stats.requests for stats in cells),
                "utilization": round(
                    sum(stats.busy_s for stats in cells) / deployed, 4
                ),
                "mean_ms": round(fleet_summary["mean"], 3),
                "p99_ms": round(fleet_summary["p99"], 3),
            }
        )
    return rows


def _autoscale_point(
    autoscale: "str | None",
    datacenters: "tuple[Datacenter, ...]",
    offered_qps: float,
    epoch_s: float,
    seed: int,
) -> "dict[str, object]":
    """One autoscaling policy's full fleet day (module-level: picklable)."""
    config = FleetConfig(
        datacenters=datacenters,
        offered_qps=offered_qps,
        load_shape=_day_shape(epoch_s),
        autoscale=autoscale,
    )
    result = FleetSimulation(config, seed=seed).run()
    day_hours = config.epochs * epoch_s / 3600.0
    attainment = result.sla_attainment(config.classes)
    interactive = result.class_histograms["interactive"].summary_ms()
    return {
        "autoscale": autoscale or "static",
        "server_hours": round(sum(result.server_hours.values()), 4),
        "peak_servers": max(stats.servers for stats in result.epoch_stats),
        "monthly_cost_usd": round(
            result.monthly_cost_usd(datacenters, day_hours), 2
        ),
        "p99_ms": round(interactive["p99"], 3),
        "sla_interactive": round(float(attainment["interactive"]), 4),
        "sla_batch": round(float(attainment["batch"]), 4),
        "scale_events": sum(result.scale_events.values()),
        "requests": result.total_requests,
    }


def fleet_autoscale_policies(
    design: str = "Scale-Out (OoO)",
    workload: str = "Web Search",
    policies: "Sequence[str]" = ("static", "target_utilization", "queue_depth"),
    offered_qps: float = 9_000.0,
    epoch_s: float = 2.0,
    policy: str = "jsq",
    seed: int = 42,
    suite: "WorkloadSuite | None" = None,
    executor: "SweepExecutor | None" = None,
) -> "list[dict[str, object]]":
    """Autoscaling policies head-to-head over the same diurnal day.

    Every policy starts from the same peak-provisioned fleet (the ``static``
    baseline simply keeps it deployed all day), so the monthly-TCO column
    isolates what reactive scaling saves -- and the SLA columns what it
    costs.  ``monthly_cost_usd`` projects the simulated day to the standard
    730-hour month of identical days.
    """
    suite = suite or default_suite()
    executor = executor or SweepExecutor()
    shape = _day_shape(epoch_s)
    datacenters = _build_fleet(
        design, workload, suite, offered_qps, shape.multiplier(shape.peak_epoch),
        policy,
    )
    points = [
        (
            None if name == "static" else name,
            datacenters,
            offered_qps,
            epoch_s,
            seed,
        )
        for name in policies
    ]
    return executor.map(_autoscale_point, points)


def _routing_point(
    routing: str,
    datacenters: "tuple[Datacenter, ...]",
    offered_qps: float,
    origin_weights: "tuple[float, ...]",
    epoch_s: float,
    seed: int,
) -> "dict[str, object]":
    """One geo-routing policy's fleet day (module-level: picklable)."""
    config = FleetConfig(
        datacenters=datacenters,
        offered_qps=offered_qps,
        routing=routing,
        load_shape=_day_shape(epoch_s),
        origin_weights=origin_weights,
    )
    result = FleetSimulation(config, seed=seed).run()
    fleet_hist = LatencyHistogram()
    for histogram in result.datacenter_histograms.values():
        fleet_hist.merge(histogram)
    summary = fleet_hist.summary_ms()
    utilization = result.datacenter_utilization(datacenters, epoch_s)
    return {
        "routing": routing,
        "mean_ms": round(summary["mean"], 3),
        "p99_ms": round(summary["p99"], 3),
        "network_ms_mean": round(result.network_mean_ms, 3),
        "max_utilization": round(max(utilization.values()), 4),
        "requests": result.total_requests,
    }


def fleet_geo_routing(
    design: str = "Scale-Out (OoO)",
    workload: str = "Web Search",
    routings: "Sequence[str]" = ("nearest", "latency_weighted", "spillover"),
    offered_qps: float = 9_000.0,
    origin_weights: "tuple[float, ...]" = (0.70, 0.20, 0.10),
    epoch_s: float = 2.0,
    policy: str = "jsq",
    seed: int = 42,
    suite: "WorkloadSuite | None" = None,
    executor: "SweepExecutor | None" = None,
) -> "list[dict[str, object]]":
    """Geo-routing policies under geographically skewed demand.

    The fleet is provisioned for the balanced layout weights but 70% of the
    demand originates near ``us-east``, so ``nearest`` overloads the close-by
    site while ``spillover`` sheds the excess to the next-nearest capacity --
    the load-vs-locality trade the chapter-10 claims grade (lowest network
    latency for ``nearest``, lowest hot-spot utilization for ``spillover``).
    """
    suite = suite or default_suite()
    executor = executor or SweepExecutor()
    shape = _day_shape(epoch_s)
    datacenters = _build_fleet(
        design, workload, suite, offered_qps, shape.multiplier(shape.peak_epoch),
        policy,
    )
    points = [
        (routing, datacenters, offered_qps, origin_weights, epoch_s, seed)
        for routing in routings
    ]
    return executor.map(_routing_point, points)


def fleet_class_priorities(
    design: str = "Scale-Out (OoO)",
    workload: str = "Web Search",
    offered_qps: float = 9_000.0,
    epoch_s: float = 2.0,
    policy: str = "jsq",
    routing: str = "spillover",
    seed: int = 42,
    suite: "WorkloadSuite | None" = None,
) -> "list[dict[str, object]]":
    """Per-class day-level latency under the prioritized default mix.

    Interactive traffic (priority 0, unit work) claims close-by capacity
    before the 4x-heavier batch class under ``spillover``; one row per class
    reports its volume, tail latency, and attainment against its own SLA.
    """
    suite = suite or default_suite()
    shape = _day_shape(epoch_s)
    datacenters = _build_fleet(
        design, workload, suite, offered_qps, shape.multiplier(shape.peak_epoch),
        policy,
    )
    config = FleetConfig(
        datacenters=datacenters,
        offered_qps=offered_qps,
        routing=routing,
        load_shape=shape,
    )
    result = FleetSimulation(config, seed=seed).run()
    attainment = result.sla_attainment(config.classes)
    rows = []
    for cls in config.classes:
        summary = result.class_histograms[cls.name].summary_ms()
        rows.append(
            {
                "request_class": cls.name,
                "priority": cls.priority,
                "service_scale": cls.service_scale,
                "requests": result.class_histograms[cls.name].count,
                "mean_ms": round(summary["mean"], 3),
                "p99_ms": round(summary["p99"], 3),
                "sla_target_ms": cls.sla_p99_ms,
                "sla_attainment": round(float(attainment[cls.name]), 4),
            }
        )
    return rows
