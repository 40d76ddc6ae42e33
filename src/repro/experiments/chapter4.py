"""Chapter 4 experiments: the NOC-Out pod microarchitecture.

Covers Figure 4.3 (snoop fractions), Figure 4.6 (system performance of mesh,
flattened butterfly, and NOC-Out), Figure 4.7 (NoC area breakdown), and Figure
4.8 (performance under a fixed NoC area budget).  The simulation-driven sweeps
fan their independent points out over a :class:`~repro.runtime.SweepExecutor`.
"""

from __future__ import annotations

import statistics

from repro.noc.simulation import PodNocStudy
from repro.perfmodel.analytic import SystemConfig
from repro.runtime.executor import SweepExecutor
from repro.sim.stats import SimulationStats
from repro.sim.system import simulate_system
from repro.workloads.profile import WorkloadProfile
from repro.workloads.suite import WorkloadSuite, default_suite


def _snoop_point(
    workload: WorkloadProfile,
    cores: int,
    llc_mb: float,
    instructions_per_core: int,
    seed: int,
) -> SimulationStats:
    config = SystemConfig(
        cores=cores, core_type="ooo", llc_capacity_mb=llc_mb, interconnect="crossbar"
    )
    return simulate_system(
        workload, config, instructions_per_core=instructions_per_core, seed=seed
    )


def figure_4_3_snoop_fraction(
    cores: int = 16,
    llc_mb: float = 8.0,
    instructions_per_core: int = 6_000,
    suite: "WorkloadSuite | None" = None,
    seed: int = 11,
    executor: "SweepExecutor | None" = None,
) -> "list[dict[str, object]]":
    """Fraction of LLC accesses triggering a snoop, measured by the simulator."""
    suite = suite or default_suite()
    executor = executor or SweepExecutor()
    stats_list = executor.map(
        _snoop_point,
        [(workload, cores, llc_mb, instructions_per_core, seed) for workload in suite],
    )
    rows = []
    measured = []
    for workload, stats in zip(suite, stats_list):
        measured.append(stats.snoop_fraction)
        rows.append(
            {
                "workload": workload.name,
                "snoop_fraction_percent": round(stats.snoop_fraction * 100.0, 2),
                "profile_percent": round(workload.snoop_fraction * 100.0, 2),
                "network_latency_avg": round(stats.network_latency_avg, 2),
            }
        )
    rows.append(
        {
            "workload": "MEAN",
            "snoop_fraction_percent": round(sum(measured) / len(measured) * 100.0, 2),
            "profile_percent": round(
                sum(w.snoop_fraction for w in suite) / len(suite) * 100.0, 2
            ),
            "network_latency_avg": round(
                sum(s.network_latency_avg for s in stats_list) / len(stats_list), 2
            ),
        }
    )
    return rows


def figure_4_6_noc_performance(
    duration_cycles: int = 4_000,
    suite: "WorkloadSuite | None" = None,
    seed: int = 1,
    executor: "SweepExecutor | None" = None,
) -> "list[dict[str, object]]":
    """System performance of mesh / fbfly / NOC-Out, normalized to the mesh."""
    study = PodNocStudy(duration_cycles=duration_cycles, suite=suite, seed=seed)
    normalized = study.normalized_performance(study.evaluate(executor=executor))
    rows = []
    for topology, per_workload in normalized.items():
        row: "dict[str, object]" = {"topology": topology}
        row.update({name: round(value, 3) for name, value in per_workload.items()})
        row["geomean"] = round(statistics.geometric_mean(list(per_workload.values())), 3)
        rows.append(row)
    return rows


def figure_4_7_noc_area(suite: "WorkloadSuite | None" = None) -> "list[dict[str, object]]":
    """NoC area breakdown (links / buffers / crossbars) for the three topologies."""
    study = PodNocStudy(suite=suite)
    rows = []
    for name, breakdown in study.area_breakdowns().items():
        rows.append(
            {
                "topology": name,
                "links_mm2": round(breakdown.links_mm2, 2),
                "buffers_mm2": round(breakdown.buffers_mm2, 2),
                "crossbars_mm2": round(breakdown.crossbars_mm2, 2),
                "total_mm2": round(breakdown.total_mm2, 2),
            }
        )
    return rows


def figure_4_8_area_normalized(
    duration_cycles: int = 4_000,
    suite: "WorkloadSuite | None" = None,
    seed: int = 1,
    executor: "SweepExecutor | None" = None,
) -> "list[dict[str, object]]":
    """Performance under a fixed NoC area budget (every topology at NOC-Out's area)."""
    study = PodNocStudy(duration_cycles=duration_cycles, suite=suite, seed=seed)
    widths = study.area_normalized_widths()
    normalized = study.normalized_performance(
        study.evaluate(link_width_bits_by_topology=widths, executor=executor)
    )
    rows = []
    for topology, per_workload in normalized.items():
        row: "dict[str, object]" = {
            "topology": topology,
            "link_width_bits": widths[topology],
        }
        row.update({name: round(value, 3) for name, value in per_workload.items()})
        row["geomean"] = round(statistics.geometric_mean(list(per_workload.values())), 3)
        rows.append(row)
    return rows


def table_4_1_parameters() -> "list[dict[str, object]]":
    """NOC-Out evaluation parameters (Table 4.1)."""
    study = PodNocStudy()
    return [
        {"parameter": "cores", "value": study.cores},
        {"parameter": "llc_mb", "value": study.llc_mb},
        {"parameter": "technology", "value": study.node.name},
        {"parameter": "frequency_ghz", "value": study.node.frequency_ghz},
        {"parameter": "link_width_bits", "value": study.config.link_width_bits},
        {"parameter": "vcs_per_port", "value": study.config.vcs_per_port},
    ]
