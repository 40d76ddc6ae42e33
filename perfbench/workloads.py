"""The three benchmark workloads: inputs from a seed, one measured call, outputs.

Each workload is built in two steps so the sample process can time them
apart: its builder imports ``repro`` and constructs every input (suite,
configs, fleet and cluster configs) and returns a :class:`Workload` whose
``run`` is the measured call.  ``units`` and ``records`` read the call's
output afterwards: ``units`` is the simulated work (named by ``unit``), and
``records`` are the simulated outputs the harness digests and compares.

Every measured call takes 1-2 s, so a run holds about a dozen samples.

``seed`` is the benchmark seed.  Seed 0 reproduces the catalog defaults of
every call (figure_3_3 seed 7, figure_4_6 seed 1, the service studies' seed
42 and fault seed 7); seed ``n`` adds ``n`` to each of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

#: figure_3_3 sweep: the 7 workloads at 2 cores on the mesh, one of the
#: catalog's 5 core counts and 3 interconnects.  Each point is a
#: catalog-default point; LLC warm-up is most of every point.
SIM_CORE_COUNTS = (2,)
SIM_INTERCONNECTS = ("mesh",)
SIM_LLC_MB = 4.0
SIM_INSTRUCTIONS_PER_CORE = 6_000

#: figure_4_6 run length; the catalog default is 4k cycles.
NOC_DURATION_CYCLES = 12_000
NOC_TOPOLOGIES = ("mesh", "fbfly", "nocout")

#: The three-datacenter diurnal fleet day (servers per site, 4 units each).
FLEET_REQUESTS = 200_000
FLEET_OFFERED_QPS = 50_000.0
FLEET_LAYOUT = (
    ("us-east", 0.0, 0.0, 27),
    ("eu-west", 1.5, 0.4, 24),
    ("ap-south", 3.0, -0.5, 17),
)

#: The service mix: a JSQ crash sweep plus two wide 128 x 8 clusters.
FAULT_SWEEP_REQUESTS = 8_000
WIDE_SERVERS = 128
WIDE_UNITS = 8
WIDE_UTILIZATION = 0.9
WIDE_SERVICE_MEAN_S = 0.002
WIDE_JSQ_REQUESTS = 80_000
WIDE_FCFS_REQUESTS = 80_000


@dataclass
class Workload:
    """A built workload: the measured call and the readers of its output."""

    unit: str
    run: Callable[[], object]
    units: Callable[[object], int]
    records: Callable[[object], "list[object]"]


def _serial():
    from repro.runtime.executor import SweepExecutor

    return SweepExecutor(mode="serial")


def build_sim_validation(seed: int) -> Workload:
    """Figure 3.3: the analytic model against 7 cycle-level simulations."""
    from repro.experiments.chapter3 import figure_3_3_model_validation
    from repro.workloads.suite import default_suite

    suite = default_suite()
    executor = _serial()
    points = len(suite) * len(SIM_INTERCONNECTS)

    def run():
        return figure_3_3_model_validation(
            core_counts=SIM_CORE_COUNTS,
            llc_mb=SIM_LLC_MB,
            interconnects=SIM_INTERCONNECTS,
            instructions_per_core=SIM_INSTRUCTIONS_PER_CORE,
            suite=suite,
            seed=7 + seed,
            executor=executor,
        )

    return Workload(
        unit="instructions",
        run=run,
        # Requested instructions (cores x instructions per core, every point);
        # the traced run reports the committed count as sim.instructions.
        units=lambda rows: points * sum(SIM_CORE_COUNTS) * SIM_INSTRUCTIONS_PER_CORE,
        records=lambda rows: list(rows),
    )


def _noc_packets(seed: int) -> int:
    """Packets figure_4_6 simulates: one batch per (topology, workload) point.

    Rebuilt from the public traffic API after the measured call; the traced
    run cross-checks it against the packets ``NocNetwork.run_batch`` saw.
    """
    from repro.noc.simulation import PodNocStudy
    from repro.noc.topology import TOPOLOGY_BUILDERS
    from repro.noc.traffic import bilateral_injection_rate, generate_bilateral_batch

    study = PodNocStudy(duration_cycles=NOC_DURATION_CYCLES, seed=1 + seed)
    total = 0
    for name in NOC_TOPOLOGIES:
        topology = TOPOLOGY_BUILDERS[name](cores=study.cores)
        for workload in study.suite:
            total += len(
                generate_bilateral_batch(
                    core_nodes=list(topology.core_nodes),
                    llc_nodes=list(topology.llc_nodes),
                    injection_rate=bilateral_injection_rate(workload, per_core_ipc=0.5),
                    snoop_fraction=workload.snoop_fraction,
                    seed=study.seed,
                    duration_cycles=study.duration_cycles,
                    active_cores=study.active_cores_for(workload),
                )
            )
    return total


def build_noc_pod(seed: int) -> Workload:
    """Figure 4.6: mesh, flattened butterfly and NOC-Out over the suite."""
    from repro.experiments.chapter4 import figure_4_6_noc_performance
    from repro.workloads.suite import default_suite

    suite = default_suite()
    executor = _serial()

    def run():
        return figure_4_6_noc_performance(
            duration_cycles=NOC_DURATION_CYCLES,
            suite=suite,
            seed=1 + seed,
            executor=executor,
        )

    return Workload(
        unit="packets",
        run=run,
        units=lambda rows: _noc_packets(seed),
        records=lambda rows: list(rows),
    )


def build_fleet_day(seed: int) -> Workload:
    """A diurnal day over three JSQ datacenters with latency-weighted routing."""
    from repro.fleet import (
        DIURNAL_24,
        Datacenter,
        FleetConfig,
        FleetSimulation,
        LoadShape,
        Region,
    )

    epoch_s = FLEET_REQUESTS / (FLEET_OFFERED_QPS * DIURNAL_24.num_epochs)
    config = FleetConfig(
        datacenters=tuple(
            Datacenter(
                name,
                Region(name, x, y),
                num_servers=servers,
                parallelism=4,
                service_mean_s=0.002,
                policy="jsq",
            )
            for name, x, y, servers in FLEET_LAYOUT
        ),
        offered_qps=FLEET_OFFERED_QPS,
        routing="latency_weighted",
        load_shape=LoadShape(DIURNAL_24.multipliers, epoch_s=epoch_s),
        origin_weights=(0.40, 0.35, 0.25),
    )

    def records(result) -> "list[object]":
        rows: "list[object]" = [{"total_requests": result.total_requests}]
        for name, histogram in sorted(result.datacenter_histograms.items()):
            rows.append(
                {
                    "datacenter": name,
                    "count": histogram.total,
                    "counts": histogram.counts.tolist(),
                    "underflow": histogram.underflow,
                    "overflow": histogram.overflow,
                    "sum_s": histogram.sum_s,
                    "max_s": histogram.max_s,
                }
            )
        return rows

    return Workload(
        unit="requests",
        run=lambda: FleetSimulation(config, seed=1 + seed, engine="fast").run(),
        units=lambda result: result.total_requests,
        records=records,
    )


def _cluster_record(name: str, result) -> "dict[str, object]":
    """Every simulated statistic of one un-faulted cluster run, unrounded."""
    return {
        "cluster": name,
        "latency_ms": result.latency.summary(),
        "measured_requests": result.measured_requests,
        "total_requests": result.total_requests,
        "duration_s": result.duration_s,
        "mean_utilization": result.mean_utilization,
        "per_server_counts": sorted(result.per_server_counts.items()),
    }


def build_service_mix(seed: int) -> Workload:
    """The crash sweep (event engine) plus wide JSQ and random-FCFS clusters."""
    from repro.experiments.faults import service_fault_sweep
    from repro.service.cluster import ClusterConfig, simulate_cluster
    from repro.workloads.suite import default_suite

    suite = default_suite()
    executor = _serial()
    offered_qps = (
        WIDE_UTILIZATION * WIDE_SERVERS * WIDE_UNITS / WIDE_SERVICE_MEAN_S
    )
    jsq = ClusterConfig(
        num_servers=WIDE_SERVERS,
        parallelism=WIDE_UNITS,
        service_mean_s=WIDE_SERVICE_MEAN_S,
        offered_qps=offered_qps,
        policy="jsq",
    )
    fcfs = ClusterConfig(
        num_servers=WIDE_SERVERS,
        parallelism=WIDE_UNITS,
        service_mean_s=WIDE_SERVICE_MEAN_S,
        offered_qps=offered_qps,
        policy="random",
    )

    def run():
        sweep = service_fault_sweep(
            num_requests=FAULT_SWEEP_REQUESTS,
            seed=42 + seed,
            fault_seed=7 + seed,
            suite=suite,
            executor=executor,
        )
        wide_jsq = simulate_cluster(
            jsq, num_requests=WIDE_JSQ_REQUESTS, seed=42 + seed, engine="fast"
        )
        wide_fcfs = simulate_cluster(
            fcfs, num_requests=WIDE_FCFS_REQUESTS, seed=42 + seed, engine="fast"
        )
        return sweep, wide_jsq, wide_fcfs

    def records(output) -> "list[object]":
        sweep, wide_jsq, wide_fcfs = output
        return [
            *sweep["sweep"],
            {"faults": sweep["faults"]},
            _cluster_record("jsq_128x8", wide_jsq),
            _cluster_record("random_128x8", wide_fcfs),
        ]

    return Workload(
        unit="requests",
        run=run,
        units=lambda output: (
            len(output[0]["sweep"]) * FAULT_SWEEP_REQUESTS
            + WIDE_JSQ_REQUESTS
            + WIDE_FCFS_REQUESTS
        ),
        records=records,
    )


def build_fleet_service(seed: int) -> Workload:
    """The fleet day, then the service mix: one measured call, units summed."""
    parts = (build_fleet_day(seed), build_service_mix(seed))

    return Workload(
        unit="requests",
        run=lambda: [part.run() for part in parts],
        units=lambda outputs: sum(p.units(o) for p, o in zip(parts, outputs)),
        records=lambda outputs: [r for p, o in zip(parts, outputs) for r in p.records(o)],
    )


#: Workload name -> builder, in the order BENCHMARK.json lists them.
WORKLOADS: "dict[str, Callable[[int], Workload]]" = {
    "sim_validation": build_sim_validation,
    "noc_pod": build_noc_pod,
    "fleet_service": build_fleet_service,
}
