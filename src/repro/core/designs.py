"""Builders for the processor designs evaluated in the paper.

Tables 2.3, 2.4, and 3.2 compare nine/ten chip organizations:

* **Conventional** -- a handful of aggressive cores with 2 MB of LLC per core,
  connected by a crossbar, one DDR channel per four cores (Xeon-class).
* **Tiled** -- mesh-connected tiles, each with a core and a 1 MB LLC slice (OoO)
  or the same core:cache area ratio (in-order); Tilera-class.
* **LLC-optimal tiled** -- tiled, but with only as much LLC per tile as scale-out
  workloads need (256 KB per OoO tile, 64 KB per in-order tile).
* **LLC-optimal tiled with IR** -- additionally replicates instructions in the LLC
  (R-NUCA style) so instruction fetches are at most one hop away.
* **Ideal** -- the same cores/LLC as LLC-optimal tiled but with an ideal 4-cycle
  interconnect; the performance-density upper bound.
* **Scale-Out** -- the pod-based design produced by the methodology of Chapter 3.
* **1-pod** -- a die holding a single PD-optimal pod (used by the TCO study of
  Chapter 5).

Every builder sizes its design by integrating as many cores as possible without
exceeding the node's area, power, and memory-bandwidth budgets (Section 2.5).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.core.chip import ScaleOutChip
from repro.core.composer import PodEvaluation, compose_chip
from repro.core.methodology import ScaleOutDesignMethodology
from repro.memory.dram import channel_for_standard
from repro.perfmodel.analytic import AnalyticPerformanceModel, Pod
from repro.technology.node import NODE_40NM, ChipConstraints, TechnologyNode
from repro.workloads.suite import WorkloadSuite, default_suite


@dataclass(frozen=True)
class DesignSpec:
    """Sizing rules for one whole-die (single coherence domain) organization.

    Attributes:
        name: design name used in tables.
        core_type: core microarchitecture.
        interconnect: on-die interconnect.
        llc_mb_per_core: LLC capacity added per core (None if ``llc_total_mb`` is
            fixed).
        llc_total_mb: fixed total LLC capacity (None if per-core).
        channels_per_core: memory channels provisioned per core (conventional
            designs use 1 per 4 cores); None provisions from modelled demand.
        instruction_replication: whether the LLC replicates instructions.
        requires_square_grid: tiled designs must form a near-square tile grid.
        effective_capacity_factor: capacity-pressure multiplier (IR).
        offchip_traffic_factor: off-chip traffic multiplier (IR).
    """

    name: str
    core_type: str
    interconnect: str
    llc_mb_per_core: "float | None" = None
    llc_total_mb: "float | None" = None
    channels_per_core: "float | None" = None
    instruction_replication: bool = False
    requires_square_grid: bool = False
    effective_capacity_factor: float = 1.0
    offchip_traffic_factor: float = 1.0

    def llc_capacity(self, cores: int) -> float:
        """Total LLC capacity for a ``cores``-core instance of this design."""
        if self.llc_total_mb is not None:
            return self.llc_total_mb
        if self.llc_mb_per_core is None:
            raise ValueError(f"design {self.name} has no LLC sizing rule")
        return self.llc_mb_per_core * cores


#: Maximum tile-grid aspect ratio considered "reasonable" for tiled layouts.
_MAX_GRID_ASPECT = 1.34


def _grid_is_reasonable(cores: int) -> bool:
    """Whether ``cores`` tiles can form a near-square grid (Section 2.5.1)."""
    cols = int(math.ceil(math.sqrt(cores)))
    for c in range(cols, cols + 2):
        if cores % c == 0:
            rows = cores // c
            if max(rows, c) / min(rows, c) <= _MAX_GRID_ASPECT:
                return True
    return False


class DesignSizer:
    """Sizes whole-die designs under area, power, and bandwidth constraints."""

    def __init__(
        self,
        node: TechnologyNode = NODE_40NM,
        model: "AnalyticPerformanceModel | None" = None,
        suite: "WorkloadSuite | None" = None,
        constraints: "ChipConstraints | None" = None,
    ):
        self.node = node
        self.model = model or AnalyticPerformanceModel()
        self.suite = suite or default_suite()
        self.constraints = constraints or node.constraints
        self.channel = channel_for_standard(node.memory_standard)

    # ----------------------------------------------------------- candidates
    def _candidate_core_counts(self, spec: DesignSpec) -> "list[int]":
        counts = list(range(1, 513))
        if spec.requires_square_grid:
            counts = [c for c in counts if c == 1 or _grid_is_reasonable(c)]
        return counts

    def _build_chip(self, spec: DesignSpec, cores: int) -> ScaleOutChip:
        llc_mb = spec.llc_capacity(cores)
        pod = Pod(
            cores=cores,
            core_type=spec.core_type,
            llc_capacity_mb=llc_mb,
            interconnect=spec.interconnect,
            node=self.node,
            instruction_replication=spec.instruction_replication,
            effective_capacity_factor=spec.effective_capacity_factor,
            offchip_traffic_factor=spec.offchip_traffic_factor,
        )
        evaluation = PodEvaluation.of(pod, self.model, self.suite)
        chip = compose_chip(evaluation, 1, self.channel, spec.name)
        if spec.channels_per_core is None:
            return chip
        channels = max(1, int(math.ceil(cores * spec.channels_per_core)))
        return replace(chip, memory_channels=channels)

    # ---------------------------------------------------------------- sizing
    def size(self, spec: DesignSpec) -> ScaleOutChip:
        """Largest instance of ``spec`` that satisfies the chip constraints."""
        best: "ScaleOutChip | None" = None
        for cores in self._candidate_core_counts(spec):
            chip = self._build_chip(spec, cores)
            if chip.memory_channels > self.constraints.max_memory_channels:
                continue
            if chip.die_area_mm2 > self.constraints.max_area_mm2:
                break  # area grows monotonically with cores
            if chip.power_w > self.constraints.max_power_w:
                continue
            best = chip
        if best is None:
            raise ValueError(f"design {spec.name} cannot fit within the chip constraints")
        return best


# ---------------------------------------------------------------------------
# Named design builders.
# ---------------------------------------------------------------------------


def _label(core_type: str) -> str:
    return {"ooo": "OoO", "inorder": "In-order", "conventional": "Conv"}.get(core_type, core_type)


def build_conventional(
    node: TechnologyNode = NODE_40NM,
    model: "AnalyticPerformanceModel | None" = None,
    suite: "WorkloadSuite | None" = None,
) -> ScaleOutChip:
    """Conventional server processor: few aggressive cores, 2 MB LLC per core."""
    spec = DesignSpec(
        name="Conventional",
        core_type="conventional",
        interconnect="crossbar",
        llc_mb_per_core=2.0,
        channels_per_core=0.25,
    )
    return DesignSizer(node, model, suite).size(spec)


def build_tiled(
    core_type: str = "ooo",
    node: TechnologyNode = NODE_40NM,
    model: "AnalyticPerformanceModel | None" = None,
    suite: "WorkloadSuite | None" = None,
) -> ScaleOutChip:
    """Tiled processor: mesh of tiles, each a core plus a large LLC slice."""
    if core_type == "ooo":
        llc_per_core = 1.0
    else:
        # The in-order tiled design maintains the OoO design's core:cache area
        # ratio (Section 2.5.1): 4.5 mm^2 of core per 5 mm^2 (1 MB) of cache.
        llc_per_core = 1.0 * (1.3 / 4.5)
    spec = DesignSpec(
        name=f"Tiled ({_label(core_type)})",
        core_type=core_type,
        interconnect="mesh",
        llc_mb_per_core=llc_per_core,
        requires_square_grid=True,
    )
    return DesignSizer(node, model, suite).size(spec)


def build_llc_optimal_tiled(
    core_type: str = "ooo",
    node: TechnologyNode = NODE_40NM,
    model: "AnalyticPerformanceModel | None" = None,
    suite: "WorkloadSuite | None" = None,
    instruction_replication: bool = False,
) -> ScaleOutChip:
    """LLC-optimal tiled processor: only as much LLC as scale-out workloads need."""
    llc_per_core = 0.25 if core_type == "ooo" else 0.0625
    suffix = " with IR" if instruction_replication else ""
    spec = DesignSpec(
        name=f"LLC-Optimal Tiled{suffix} ({_label(core_type)})",
        core_type=core_type,
        interconnect="mesh",
        llc_mb_per_core=llc_per_core,
        requires_square_grid=True,
        instruction_replication=instruction_replication,
        effective_capacity_factor=0.85 if instruction_replication else 1.0,
        offchip_traffic_factor=1.2 if instruction_replication else 1.0,
    )
    return DesignSizer(node, model, suite).size(spec)


def build_llc_optimal_tiled_ir(
    core_type: str = "ooo",
    node: TechnologyNode = NODE_40NM,
    model: "AnalyticPerformanceModel | None" = None,
    suite: "WorkloadSuite | None" = None,
) -> ScaleOutChip:
    """LLC-optimal tiled processor with R-NUCA-style instruction replication."""
    return build_llc_optimal_tiled(
        core_type, node, model, suite, instruction_replication=True
    )


def build_ideal(
    core_type: str = "ooo",
    node: TechnologyNode = NODE_40NM,
    model: "AnalyticPerformanceModel | None" = None,
    suite: "WorkloadSuite | None" = None,
) -> ScaleOutChip:
    """Ideal processor: the LLC-optimal core/cache budget with a 4-cycle interconnect."""
    reference = build_llc_optimal_tiled(core_type, node, model, suite)
    pod = Pod(
        cores=reference.total_cores,
        core_type=core_type,
        llc_capacity_mb=reference.total_llc_mb,
        interconnect="ideal",
        node=node,
    )
    sizer = DesignSizer(node, model, suite)
    return compose_chip(
        PodEvaluation.of(pod, sizer.model, sizer.suite),
        1,
        sizer.channel,
        f"Ideal ({_label(core_type)})",
        sizer.constraints.max_memory_channels,
    )


def build_scale_out(
    core_type: str = "ooo",
    node: TechnologyNode = NODE_40NM,
    model: "AnalyticPerformanceModel | None" = None,
    suite: "WorkloadSuite | None" = None,
) -> ScaleOutChip:
    """Scale-Out Processor: the multi-pod design produced by the methodology."""
    methodology = ScaleOutDesignMethodology(node=node, model=model, suite=suite)
    return methodology.design(
        core_type=core_type, name=f"Scale-Out ({_label(core_type)})"
    )


def build_single_pod(
    core_type: str = "ooo",
    node: TechnologyNode = NODE_40NM,
    model: "AnalyticPerformanceModel | None" = None,
    suite: "WorkloadSuite | None" = None,
) -> ScaleOutChip:
    """1-pod chip: a die carrying a single PD-optimal pod (Chapter 5's "1Pod")."""
    methodology = ScaleOutDesignMethodology(node=node, model=model, suite=suite)
    point = methodology.pd_optimal_pod(core_type=core_type)
    return compose_chip(
        point.evaluation,
        1,
        methodology.channel,
        f"1Pod ({_label(core_type)})",
        methodology.constraints.max_memory_channels,
    )


def standard_designs(
    node: TechnologyNode = NODE_40NM,
    model: "AnalyticPerformanceModel | None" = None,
    suite: "WorkloadSuite | None" = None,
    include_ideal: bool = True,
    include_scale_out: bool = True,
) -> "list[ScaleOutChip]":
    """All designs of Table 3.2, in the paper's presentation order."""
    model = model or AnalyticPerformanceModel()
    suite = suite or default_suite()
    designs: "list[ScaleOutChip]" = [build_conventional(node, model, suite)]
    for core_type in ("ooo", "inorder"):
        designs.append(build_tiled(core_type, node, model, suite))
        designs.append(build_llc_optimal_tiled(core_type, node, model, suite))
        designs.append(build_llc_optimal_tiled_ir(core_type, node, model, suite))
        if include_scale_out:
            designs.append(build_scale_out(core_type, node, model, suite))
        if include_ideal:
            designs.append(build_ideal(core_type, node, model, suite))
    return designs
