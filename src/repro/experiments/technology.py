"""Chapter 11 studies: the technology-node family from 90 nm to 7 nm.

The paper evaluates its designs at two full nodes (40 nm, 20 nm); these
studies re-ask its questions across the whole derived family of
:mod:`repro.technology.family` -- ChipSuite-style, one set of rows per node:

* :func:`node_family_table` -- the derived family itself: per-node scaling
  factors, Vdd, memory standard, wire figures, SRAM density/latency, and the
  extrapolation flags from each node's provenance record.
* :func:`node_design_scaling` -- the paper's flagship designs (Conventional,
  Scale-Out OoO/in-order) re-sized at every node under the fixed 280 mm^2 /
  95 W socket; nodes where a design cannot fit the budgets at any size are
  reported ``feasible=False`` instead of silently dropped.
* :func:`node_pod_selection` -- the Chapter 3 pod-selection methodology run
  per (node, core family): the PD-optimal pod's core count, LLC capacity,
  and performance density as technology shrinks.
* :func:`node_sram_scaling` -- the CACTI stand-in swept across capacity and
  node: area, latency, energy, and power of LLC banks at each extreme.

Every function accepts ``nodes`` (names, feature sizes, or node objects;
default: the whole family) so ``repro run --node`` and sweeps can restrict
the family, and returns JSON-able rows for the runtime envelope.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.designs import (
    build_conventional,
    build_scale_out,
    build_single_pod,
)
from repro.core.methodology import ScaleOutDesignMethodology
from repro.perfmodel.analytic import AnalyticPerformanceModel
from repro.runtime.executor import SERIAL_EXECUTOR, SweepExecutor
from repro.tco.datacenter import DatacenterDesign
from repro.technology.cacti import SramModel
from repro.technology.family import DEFAULT_FAMILY
from repro.technology.node import TechnologyNode, coerce_node
from repro.workloads.suite import WorkloadSuite, default_suite

#: Node keys accepted anywhere a study takes a ``nodes`` sequence.
NodeKey = "TechnologyNode | str | int"


def _resolve_nodes(nodes: "Sequence[NodeKey] | None") -> "list[TechnologyNode]":
    """Normalize a ``nodes`` argument (default: the whole family, oldest first)."""
    if nodes is None:
        return DEFAULT_FAMILY.nodes()
    return [coerce_node(node) for node in nodes]


def node_family_table(
    nodes: "Sequence[NodeKey] | None" = None,
) -> "list[dict[str, object]]":
    """The derived node family: scaling factors, derived figures, provenance flags.

    One row per node, oldest first: the dataclass fields every other study
    consumes (area/power/analog scales, Vdd, memory standard, wire figures)
    plus the derived SRAM density and latency and the names of any scaling
    rules that had to extrapolate to produce the node.
    """
    rows = []
    for node in _resolve_nodes(nodes):
        provenance = DEFAULT_FAMILY.provenance(node)
        derived = provenance["derived"]
        rows.append(
            {
                "node": node.name,
                "feature_nm": node.feature_nm,
                "vdd": node.vdd,
                "logic_area_scale": node.logic_area_scale,
                "logic_power_scale": round(node.logic_power_scale, 6),
                "analog_area_scale": node.analog_area_scale,
                "memory_standard": node.memory_standard,
                "wire_delay_ps_per_mm": node.wire_delay_ps_per_mm,
                "wire_energy_fj_per_bit_mm": node.wire_energy_fj_per_bit_mm,
                "sram_area_mm2_per_mb": derived["sram_area_mm2_per_mb"],
                "sram_1mb_latency_cycles": derived["sram_1mb_latency_cycles"],
                "calibrated": provenance["calibrated"],
                "extrapolated_rules": ",".join(provenance["extrapolated_rules"]),
            }
        )
    return rows


#: Whole-die designs re-sized per node by :func:`node_design_scaling`.
_SCALING_DESIGNS = (
    ("Conventional", build_conventional, ()),
    ("Scale-Out (OoO)", build_scale_out, ("ooo",)),
    ("Scale-Out (In-order)", build_scale_out, ("inorder",)),
    ("1Pod (OoO)", build_single_pod, ("ooo",)),
)


def node_design_scaling(
    nodes: "Sequence[NodeKey] | None" = None,
    suite: "WorkloadSuite | None" = None,
) -> "list[dict[str, object]]":
    """The paper's flagship designs re-sized at every family node.

    Each (node, design) row reports the sized chip's cores, die area, power,
    performance, and the efficiency metrics the paper ranks designs by
    (performance density, performance per watt, performance per TCO).  At old
    nodes the fixed 280 mm^2 / 95 W socket cannot hold some designs at any
    core count (a 90 nm conventional core alone is ~23 mm^2 and 9x power);
    those rows carry ``feasible=False`` and the sizing error instead of
    metrics, so cross-node comparisons never silently skip a node.
    """
    suite = suite or default_suite()
    model = AnalyticPerformanceModel()
    rows = []
    for node in _resolve_nodes(nodes):
        datacenter = DatacenterDesign(model=model)
        for name, builder, extra in _SCALING_DESIGNS:
            row: "dict[str, object]" = {
                "node": node.name,
                "design": name,
                "calibrated": not DEFAULT_FAMILY.is_extrapolated(node),
            }
            try:
                chip = builder(*extra, node=node, model=model, suite=suite)
            except ValueError as error:
                row.update(
                    feasible=False,
                    fits_budgets=False,
                    reason=str(error),
                    cores=0,
                    die_area_mm2=None,
                    power_w=None,
                    performance=None,
                    performance_density=None,
                    performance_per_watt=None,
                    performance_per_tco=None,
                )
                rows.append(row)
                continue
            performance = chip.performance()
            dc_result = datacenter.evaluate(chip)
            row.update(
                feasible=True,
                # The pod-based builders fall back to a one-pod chip even when
                # it busts the socket (compose_chip's contract); record fit
                # separately so cross-node claims can filter on it.
                fits_budgets=chip.satisfies(node.constraints),
                reason="",
                cores=chip.total_cores,
                die_area_mm2=round(chip.die_area_mm2, 2),
                power_w=round(chip.power_w, 2),
                performance=round(performance, 4),
                performance_density=round(performance / chip.die_area_mm2, 6),
                performance_per_watt=round(performance / chip.power_w, 6),
                performance_per_tco=round(dc_result.performance_per_tco, 6),
            )
            rows.append(row)
    return rows


def _pod_selection_point(node_name: str, core_type: str) -> "dict[str, object]":
    """One (node, core family) pod selection (module-level: picklable)."""
    node = coerce_node(node_name)
    methodology = ScaleOutDesignMethodology(node=node)
    point = methodology.pd_optimal_pod(core_type=core_type)
    return {
        "node": node.name,
        "core_type": core_type,
        "pod_cores": point.pod.cores,
        "pod_llc_mb": point.pod.llc_capacity_mb,
        "pod_performance": round(point.performance, 4),
        "performance_density": round(point.performance_density, 4),
        "calibrated": not DEFAULT_FAMILY.is_extrapolated(node),
    }


def node_pod_selection(
    nodes: "Sequence[NodeKey] | None" = None,
    core_types: "Sequence[str]" = ("ooo", "inorder"),
    executor: "SweepExecutor | None" = None,
) -> "list[dict[str, object]]":
    """The PD-optimal pod per (node, core family), Chapter 3's methodology per node.

    The selection itself is node-local, so points fan out through the
    ``executor`` (serial and parallel runs produce identical rows).
    """
    executor = executor or SERIAL_EXECUTOR
    points = [
        (node.name, core_type)
        for node in _resolve_nodes(nodes)
        for core_type in core_types
    ]
    return executor.map(_pod_selection_point, points)


def node_sram_scaling(
    nodes: "Sequence[NodeKey] | None" = None,
    capacities_mb: "Sequence[float]" = (1.0, 2.0, 4.0, 8.0, 16.0),
) -> "list[dict[str, object]]":
    """LLC bank estimates across capacity and node (the CACTI stand-in swept).

    One row per (node, capacity): bank area, access latency, energy per
    access, and total power.  Area shrinks with the node's quadratic law
    while latency in cycles stays nearly flat (smaller banks, relatively
    slower wires) -- the first-order CACTI behaviour the paper relies on.
    """
    rows = []
    for node in _resolve_nodes(nodes):
        model = SramModel(node)
        for capacity in capacities_mb:
            estimate = model.estimate(capacity)
            rows.append(
                {
                    "node": node.name,
                    "capacity_mb": capacity,
                    "area_mm2": round(estimate.area_mm2, 4),
                    "access_latency_cycles": estimate.access_latency_cycles,
                    "dynamic_energy_nj": round(estimate.dynamic_energy_nj, 4),
                    "power_w": round(estimate.leakage_w, 4),
                }
            )
    return rows
