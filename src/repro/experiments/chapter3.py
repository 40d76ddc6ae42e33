"""Chapter 3 experiments: the scale-out design methodology.

Covers Figure 3.3 (analytic model versus cycle-level simulation), Figures
3.4-3.6 (performance-density sweeps and pod selection), and Table 3.2 (the full
design comparison including Scale-Out Processors at 40nm and 20nm).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.comparison import compare_designs
from repro.core.designs import standard_designs
from repro.core.methodology import ScaleOutDesignMethodology
from repro.perfmodel.analytic import Pod
from repro.perfmodel.validation import validate_against
from repro.runtime.executor import SweepExecutor
from repro.sim.system import simulate_system
from repro.technology.node import NODE_40NM, TechnologyNode, coerce_node
from repro.workloads.profile import WorkloadProfile
from repro.workloads.suite import WorkloadSuite, default_suite


def _validation_point(
    workload: WorkloadProfile,
    config: Pod,
    instructions_per_core: int,
    seed: int,
) -> float:
    return simulate_system(
        workload, config, instructions_per_core=instructions_per_core, seed=seed
    ).aggregate_ipc


def figure_3_3_model_validation(
    core_counts: Sequence[int] = (1, 2, 4, 8, 16),
    llc_mb: float = 4.0,
    interconnects: Sequence[str] = ("ideal", "crossbar", "mesh"),
    instructions_per_core: int = 6_000,
    suite: "WorkloadSuite | None" = None,
    seed: int = 7,
    executor: "SweepExecutor | None" = None,
) -> "list[dict[str, object]]":
    """Analytic model versus cycle-level simulation (aggregate IPC per design point)."""
    suite = suite or default_suite()
    executor = executor or SweepExecutor()
    configs = [
        Pod(cores=cores, core_type="ooo", llc_capacity_mb=llc_mb, interconnect=net)
        for net in interconnects
        for cores in core_counts
    ]
    # Simulate every (workload, config) point up front -- the expensive half of
    # the comparison -- then serve the measurements to validate_against by
    # (workload, config) identity, independent of its iteration order.
    points = [(workload, config) for workload in suite for config in configs]
    measured = executor.map(
        _validation_point,
        [(workload, config, instructions_per_core, seed) for workload, config in points],
    )
    config_index = {id(config): i for i, config in enumerate(configs)}
    by_point = {
        (workload.name, config_index[id(config)]): ipc
        for (workload, config), ipc in zip(points, measured)
    }
    report = validate_against(
        lambda workload, config: by_point[(workload.name, config_index[id(config)])],
        suite,
        configs,
    )
    rows = [
        {
            "workload": point.workload,
            "cores": point.cores,
            "interconnect": point.interconnect,
            "model_ipc": round(point.model_ipc, 2),
            "simulated_ipc": round(point.simulated_ipc, 2),
            "relative_error": round(point.relative_error, 3),
        }
        for point in report.points
    ]
    rows.append(
        {
            "workload": "MEAN",
            "cores": 0,
            "interconnect": "all",
            "model_ipc": 0.0,
            "simulated_ipc": 0.0,
            "relative_error": round(report.mean_absolute_error, 3),
        }
    )
    return rows


def figure_3_4_pd_sweep_ooo(
    node: "TechnologyNode | str | int" = NODE_40NM,
    suite: "WorkloadSuite | None" = None,
) -> "list[dict[str, object]]":
    """Performance density versus core count and LLC size for OoO pods."""
    methodology = ScaleOutDesignMethodology(node=coerce_node(node), suite=suite)
    rows = []
    for point in methodology.sweep_pods("ooo", interconnects=("ideal", "crossbar", "mesh")):
        rows.append(
            {
                "interconnect": point.pod.interconnect,
                "llc_mb": point.pod.llc_capacity_mb,
                "cores": point.pod.cores,
                "performance_density": round(point.performance_density, 4),
            }
        )
    return rows


def figure_3_5_pod_selection(
    node: "TechnologyNode | str | int" = NODE_40NM,
    suite: "WorkloadSuite | None" = None,
) -> "dict[str, object]":
    """Crossbar pod sweep plus the selected (near-optimal, fewest-core) pod."""
    methodology = ScaleOutDesignMethodology(node=coerce_node(node), suite=suite)
    points = methodology.sweep_pods("ooo", interconnects=("crossbar",))
    selected = methodology.pd_optimal_pod("ooo")
    return {
        "sweep": [
            {
                "llc_mb": p.pod.llc_capacity_mb,
                "cores": p.pod.cores,
                "performance_density": round(p.performance_density, 4),
            }
            for p in points
        ],
        "selected_cores": selected.pod.cores,
        "selected_llc_mb": selected.pod.llc_capacity_mb,
        "selected_pd": round(selected.performance_density, 4),
    }


def figure_3_6_pd_sweep_inorder(
    node: "TechnologyNode | str | int" = NODE_40NM,
    suite: "WorkloadSuite | None" = None,
) -> "list[dict[str, object]]":
    """Performance density versus core count and LLC size for in-order pods."""
    methodology = ScaleOutDesignMethodology(node=coerce_node(node), suite=suite)
    rows = []
    for point in methodology.sweep_pods("inorder", interconnects=("ideal", "crossbar", "mesh")):
        rows.append(
            {
                "interconnect": point.pod.interconnect,
                "llc_mb": point.pod.llc_capacity_mb,
                "cores": point.pod.cores,
                "performance_density": round(point.performance_density, 4),
            }
        )
    return rows


def table_3_2_design_comparison(
    node: "TechnologyNode | str | int" = NODE_40NM,
    suite: "WorkloadSuite | None" = None,
) -> "list[dict[str, object]]":
    """Full design comparison including Scale-Out Processors (Table 3.2)."""
    suite = suite or default_suite()
    designs = standard_designs(coerce_node(node), suite)
    return compare_designs(designs).as_dicts()
