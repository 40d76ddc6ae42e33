"""Chapter 6 experiments: 3D Scale-Out Processors.

Covers Table 6.1 (3D component budgets), Figures 6.4 / 6.6 (3D performance
density sweeps for OoO and in-order cores), Figures 6.5 / 6.7 (fixed-pod versus
fixed-distance strategies), and Table 6.2 (2D versus 3D Scale-Out Processor
specifications).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.methodology import ScaleOutDesignMethodology
from repro.runtime.executor import SERIAL_EXECUTOR, SweepExecutor
from repro.technology.components import ComponentCatalog
from repro.technology.node import NODE_40NM, TechnologyNode, coerce_node
from repro.three_d.designer import ThreeDDesignStudy
from repro.workloads.suite import WorkloadSuite, default_suite


def _pd3d_chunk(
    study: ThreeDDesignStudy,
    core_type: str,
    core_counts: "tuple[int, ...]",
    llc_mb: float,
    dies: int,
) -> "list":
    return study.sweep(
        core_type=core_type,
        core_counts=core_counts,
        llc_sizes_mb=(llc_mb,),
        num_dies=dies,
    )


def table_6_1_components(node: "TechnologyNode | str | int" = NODE_40NM) -> "list[dict[str, object]]":
    """Component area/power for the 3D study (DDR4 interfaces)."""
    catalog = ComponentCatalog(coerce_node(node))
    rows = []
    for spec in (catalog.ooo_core, catalog.inorder_core, catalog.llc_per_mb, catalog.memory_interface):
        rows.append(
            {"component": spec.name, "area_mm2": round(spec.area_mm2, 2), "power_w": round(spec.power_w, 2)}
        )
    return rows


def figure_6_4_pd3d_ooo(
    die_counts: Sequence[int] = (1, 2, 4),
    suite: "WorkloadSuite | None" = None,
    executor: "SweepExecutor | None" = None,
) -> "list[dict[str, object]]":
    """3D performance density sweep for OoO pods."""
    return _pd3d_sweep("ooo", die_counts, suite, executor)


def figure_6_6_pd3d_inorder(
    die_counts: Sequence[int] = (1, 2, 4),
    suite: "WorkloadSuite | None" = None,
    executor: "SweepExecutor | None" = None,
) -> "list[dict[str, object]]":
    """3D performance density sweep for in-order pods."""
    return _pd3d_sweep("inorder", die_counts, suite, executor)


def _pd3d_sweep(
    core_type: str,
    die_counts: Sequence[int],
    suite: "WorkloadSuite | None",
    executor: "SweepExecutor | None" = None,
) -> "list[dict[str, object]]":
    study = ThreeDDesignStudy(suite=suite)
    executor = executor or SERIAL_EXECUTOR
    core_counts = (4, 8, 16, 32, 64, 128)
    llc_sizes_mb = (2.0, 4.0, 8.0, 16.0, 32.0)
    # Matches the serial iteration order: dies outer, LLC size middle, cores
    # inner (each chunk evaluates one (dies, llc) pair across all core counts).
    chunks = executor.map(
        _pd3d_chunk,
        [
            (study, core_type, core_counts, llc_mb, dies)
            for dies in die_counts
            for llc_mb in llc_sizes_mb
        ],
    )
    rows = []
    for (dies, _), chunk in zip(
        ((dies, llc) for dies in die_counts for llc in llc_sizes_mb), chunks
    ):
        for point in chunk:
            rows.append(
                {
                    "dies": dies,
                    "cores": point.stacked_pod.cores,
                    "llc_mb": point.stacked_pod.llc_capacity_mb,
                    "performance_density": round(point.performance_density, 4),
                }
            )
    return rows


def figure_6_5_strategies_ooo(
    suite: "WorkloadSuite | None" = None,
) -> "list[dict[str, object]]":
    """Fixed-pod versus fixed-distance for OoO pods (1, 2, 4 dies)."""
    return _strategies("ooo", (1, 2, 4), suite)


def figure_6_7_strategies_inorder(
    suite: "WorkloadSuite | None" = None,
) -> "list[dict[str, object]]":
    """Fixed-pod versus fixed-distance for in-order pods (1, 2, 3 dies)."""
    return _strategies("inorder", (1, 2, 3), suite)


def _strategies(
    core_type: str, die_counts: Sequence[int], suite: "WorkloadSuite | None"
) -> "list[dict[str, object]]":
    suite = suite or default_suite()
    study = ThreeDDesignStudy(suite=suite)
    methodology = ScaleOutDesignMethodology(suite=suite)
    base_pod = methodology.pd_optimal_pod(core_type=core_type).pod
    rows = []
    for point in study.compare_strategies(base_pod, die_counts):
        rows.append(
            {
                "configuration": point.label,
                "dies": point.stacked_pod.num_dies,
                "strategy": point.stacked_pod.strategy.value,
                "cores": point.stacked_pod.cores,
                "llc_mb": point.stacked_pod.llc_capacity_mb,
                "performance_density": round(point.performance_density, 4),
            }
        )
    return rows


def table_6_2_specifications(
    suite: "WorkloadSuite | None" = None,
) -> "list[dict[str, object]]":
    """2D versus 3D Scale-Out Processor specifications for both core types."""
    suite = suite or default_suite()
    study = ThreeDDesignStudy(suite=suite)
    rows = []
    rows.extend(study.specification_table(core_type="ooo", die_counts=(1, 2, 4)))
    rows.extend(study.specification_table(core_type="inorder", die_counts=(1, 2, 3)))
    return rows
