"""Chapter 2 experiments: workload characterization and the design-space case.

Covers Figure 2.1 (application IPC on an aggressive core), Figure 2.2 (LLC
capacity sensitivity), Figure 2.3 (core-count scaling under ideal and realistic
interconnects), Table 2.1 (component area/power), and Tables 2.3 / 2.4 (the
processor design comparison at 40nm and 20nm).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.comparison import compare_designs
from repro.core.designs import standard_designs
from repro.perfmodel.analytic import AnalyticPerformanceModel, Pod
from repro.runtime.executor import SERIAL_EXECUTOR, SweepExecutor
from repro.technology.components import ComponentCatalog
from repro.technology.node import NODE_20NM, NODE_40NM, TechnologyNode, coerce_node
from repro.workloads.suite import WorkloadSuite, default_suite


def _per_core_ipc_point(
    model: AnalyticPerformanceModel,
    suite: WorkloadSuite,
    llc_mb: float,
    interconnect: str,
    cores: int,
) -> float:
    pod = Pod(cores=cores, core_type="ooo", llc_capacity_mb=llc_mb, interconnect=interconnect)
    return model.average_per_core_ipc(pod, suite)


def figure_2_1_application_ipc(
    suite: "WorkloadSuite | None" = None,
    model: "AnalyticPerformanceModel | None" = None,
) -> "list[dict[str, object]]":
    """Application IPC of each workload on an aggressive 4-wide OoO core."""
    suite = suite or default_suite()
    model = model or AnalyticPerformanceModel()
    pod = Pod(cores=4, core_type="conventional", llc_capacity_mb=4, interconnect="ideal")
    rows = []
    for workload in suite:
        estimate = model.estimate(workload, pod)
        rows.append({"workload": workload.name, "application_ipc": round(estimate.per_core_ipc, 2)})
    return rows


def figure_2_2_llc_sensitivity(
    llc_sizes_mb: Sequence[float] = (1, 2, 4, 8, 16, 32),
    cores: int = 4,
    suite: "WorkloadSuite | None" = None,
    model: "AnalyticPerformanceModel | None" = None,
) -> "list[dict[str, object]]":
    """Performance versus LLC size for 4-core systems, normalized to 1 MB."""
    suite = suite or default_suite()
    model = model or AnalyticPerformanceModel()
    rows = []
    for workload in suite:
        base = model.estimate(
            workload, Pod(cores=cores, core_type="ooo", llc_capacity_mb=llc_sizes_mb[0], interconnect="crossbar")
        ).aggregate_ipc
        row: "dict[str, object]" = {"workload": workload.name}
        for llc in llc_sizes_mb:
            est = model.estimate(
                workload, Pod(cores=cores, core_type="ooo", llc_capacity_mb=llc, interconnect="crossbar")
            )
            row[f"{llc:g}MB"] = round(est.aggregate_ipc / base, 3)
        rows.append(row)
    return rows


def figure_2_3_core_scaling(
    core_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256),
    llc_mb: float = 4.0,
    suite: "WorkloadSuite | None" = None,
    model: "AnalyticPerformanceModel | None" = None,
    executor: "SweepExecutor | None" = None,
) -> "list[dict[str, object]]":
    """Per-core and aggregate performance versus core count, ideal versus mesh."""
    suite = suite or default_suite()
    model = model or AnalyticPerformanceModel()
    executor = executor or SERIAL_EXECUTOR
    interconnects = ("ideal", "mesh")
    baselines: "dict[str, float]" = {}
    for interconnect in interconnects:
        baselines[interconnect] = _per_core_ipc_point(model, suite, llc_mb, interconnect, 1)
    per_core_ipcs = executor.map(
        _per_core_ipc_point,
        [
            (model, suite, llc_mb, interconnect, cores)
            for cores in core_counts
            for interconnect in interconnects
        ],
    )
    rows = []
    ipc_iter = iter(per_core_ipcs)
    for cores in core_counts:
        row: "dict[str, object]" = {"cores": cores}
        for interconnect in interconnects:
            per_core = next(ipc_iter)
            row[f"{interconnect}_per_core"] = round(per_core / baselines[interconnect], 3)
            row[f"{interconnect}_aggregate"] = round(per_core * cores / baselines[interconnect], 1)
        rows.append(row)
    return rows


def table_2_1_components(node: "TechnologyNode | str | int" = NODE_40NM) -> "list[dict[str, object]]":
    """Component area and power estimates (Table 2.1)."""
    catalog = ComponentCatalog(coerce_node(node))
    rows = []
    for spec in (
        catalog.conventional_core,
        catalog.ooo_core,
        catalog.inorder_core,
        catalog.llc_per_mb,
        catalog.memory_interface,
        catalog.soc_misc,
    ):
        rows.append(
            {
                "component": spec.name,
                "area_mm2": round(spec.area_mm2, 2),
                "power_w": round(spec.power_w, 2),
            }
        )
    return rows


def table_2_3_designs_40nm(
    suite: "WorkloadSuite | None" = None,
) -> "list[dict[str, object]]":
    """Design comparison at 40nm (conventional, tiled, LLC-optimal, IR, ideal)."""
    suite = suite or default_suite()
    model = AnalyticPerformanceModel()
    designs = standard_designs(NODE_40NM, model, suite, include_scale_out=False)
    return compare_designs(designs).as_dicts()


def table_2_4_designs_20nm(
    suite: "WorkloadSuite | None" = None,
) -> "list[dict[str, object]]":
    """Design comparison projected to 20nm."""
    suite = suite or default_suite()
    model = AnalyticPerformanceModel()
    designs = standard_designs(NODE_20NM, model, suite, include_scale_out=False)
    return compare_designs(designs).as_dicts()
