"""Chip-level composition of pods into a Scale-Out Processor.

A Scale-Out chip (Section 3.2.3) is a simple composition of one or more pods plus
memory and I/O interfaces.  Pods have no inter-pod connectivity or coherence, so
the chip-level "interconnect" is a trivial layer routing pod traffic to the shared
memory channels.  The same class also represents the baseline processors
(conventional, tiled, ideal): those are simply single-"pod" chips whose
organization unit spans the whole die.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pod import Pod
from repro.memory.dram import DramChannel, channel_for_standard
from repro.perfmodel.analytic import AnalyticPerformanceModel
from repro.perfmodel.density import AreaBudget, performance_density
from repro.technology.components import ComponentCatalog
from repro.technology.node import ChipConstraints, TechnologyNode
from repro.workloads.suite import WorkloadSuite, default_suite


@dataclass(frozen=True)
class ScaleOutChip:
    """A server processor composed of ``num_pods`` identical pods.

    Attributes:
        name: design name used in tables ("Scale-Out (OoO)", "Conventional", ...).
        pod: the organization unit (an actual pod, or the whole-die organization of
            a baseline design).
        num_pods: number of pod instances on the die.
        memory_channels: number of DRAM channels provisioned on the die.
        num_dies: number of stacked logic dies (1 for planar chips; Chapter 6
            stacks 2-4).
        pod_performance: optional pre-computed average aggregate IPC of one pod
            (lets callers reuse model evaluations); computed on demand otherwise.
    """

    name: str
    pod: Pod
    num_pods: int = 1
    memory_channels: int = 1
    num_dies: int = 1
    pod_performance: "float | None" = None

    def __post_init__(self) -> None:
        if self.num_pods < 1:
            raise ValueError("num_pods must be >= 1")
        if self.memory_channels < 1:
            raise ValueError("memory_channels must be >= 1")
        if self.num_dies < 1:
            raise ValueError("num_dies must be >= 1")

    # ---------------------------------------------------------------- basics
    @property
    def node(self) -> TechnologyNode:
        """Technology node of the chip (that of its pods)."""
        return self.pod.node

    @property
    def total_cores(self) -> int:
        """Total core count across all pods."""
        return self.pod.cores * self.num_pods

    @property
    def total_llc_mb(self) -> float:
        """Total LLC capacity across all pods."""
        return self.pod.llc_capacity_mb * self.num_pods

    def dram_channel(self) -> DramChannel:
        """The DRAM channel model of this chip's node."""
        return channel_for_standard(self.node.memory_standard)

    # ------------------------------------------------------------------ area
    def area_budget(self) -> AreaBudget:
        """Itemized die area: pods + memory interfaces + SoC glue.

        For multi-die (3D) chips, this is the area of *one* logic die footprint:
        pods are distributed evenly across the stacked dies, while the memory
        interfaces and SoC components sit on the base die.  The footprint is the
        largest die in the stack.
        """
        catalog = ComponentCatalog(self.node)
        pods_budget = self.pod.area_budget().scaled(self.num_pods / self.num_dies)
        interfaces = AreaBudget(
            memory_interfaces_mm2=catalog.memory_interface_area_mm2(self.memory_channels),
            soc_misc_mm2=catalog.soc_misc.area_mm2,
        )
        return pods_budget + interfaces

    @property
    def die_area_mm2(self) -> float:
        """Die footprint area in mm^2 (per die for 3D stacks)."""
        return self.area_budget().total_mm2

    # ----------------------------------------------------------------- power
    @property
    def power_w(self) -> float:
        """Chip TDP: all pods plus memory interfaces plus SoC components."""
        catalog = ComponentCatalog(self.node)
        return (
            self.pod.power_w * self.num_pods
            + catalog.memory_interface_power_w(self.memory_channels)
            + catalog.soc_misc.power_w
        )

    # ----------------------------------------------------------- performance
    def performance(
        self,
        model: "AnalyticPerformanceModel | None" = None,
        suite: "WorkloadSuite | None" = None,
    ) -> float:
        """Chip throughput: aggregate application IPC summed over all pods.

        Pods are independent servers, so chip performance is exactly
        ``num_pods * pod_performance`` (Section 3.2.1: adding pods does not affect
        the optimality of each pod).
        """
        per_pod = self.pod_performance
        if per_pod is None:
            per_pod = self.pod.performance(model, suite)
        return per_pod * self.num_pods

    def performance_density(
        self,
        model: "AnalyticPerformanceModel | None" = None,
        suite: "WorkloadSuite | None" = None,
    ) -> float:
        """Chip-level performance density (per die footprint, per stacked die)."""
        return performance_density(
            self.performance(model, suite), self.die_area_mm2, self.num_dies
        )

    def performance_per_watt(
        self,
        model: "AnalyticPerformanceModel | None" = None,
        suite: "WorkloadSuite | None" = None,
    ) -> float:
        """Chip energy efficiency: aggregate IPC per Watt of TDP."""
        return self.performance(model, suite) / self.power_w

    def bandwidth_demand_gbps(
        self,
        model: "AnalyticPerformanceModel | None" = None,
        suite: "WorkloadSuite | None" = None,
    ) -> float:
        """Worst-case off-chip bandwidth demand of the whole chip."""
        return self.pod.bandwidth_demand_gbps(model, suite) * self.num_pods

    # ------------------------------------------------------------ constraints
    def satisfies(self, constraints: "ChipConstraints | None" = None) -> bool:
        """Whether the chip fits its node's area, power, and channel budgets."""
        constraints = constraints or self.node.constraints
        return (
            self.die_area_mm2 <= constraints.max_area_mm2
            and self.power_w <= constraints.max_power_w
            and self.memory_channels <= constraints.max_memory_channels
        )

    def limiting_constraint(self, constraints: "ChipConstraints | None" = None) -> str:
        """Which budget the design is closest to (area / power / bandwidth)."""
        constraints = constraints or self.node.constraints
        utilizations = {
            "area": self.die_area_mm2 / constraints.max_area_mm2,
            "power": self.power_w / constraints.max_power_w,
            "bandwidth": self.memory_channels / constraints.max_memory_channels,
        }
        return max(utilizations, key=utilizations.get)

    # ----------------------------------------------------------------- report
    def summary(
        self,
        model: "AnalyticPerformanceModel | None" = None,
        suite: "WorkloadSuite | None" = None,
    ) -> "dict[str, float | int | str]":
        """Table-row summary matching the columns of the paper's Tables 2.3/3.2."""
        model = model or AnalyticPerformanceModel()
        suite = suite or default_suite()
        perf = self.performance(model, suite)
        return {
            "design": self.name,
            "node": self.node.name,
            "pods": self.num_pods,
            "cores": self.total_cores,
            "llc_mb": self.total_llc_mb,
            "memory_channels": self.memory_channels,
            "dies": self.num_dies,
            "die_area_mm2": round(self.die_area_mm2, 1),
            "power_w": round(self.power_w, 1),
            "performance": round(perf, 2),
            "performance_density": round(performance_density(perf, self.die_area_mm2, self.num_dies), 4),
            "performance_per_watt": round(perf / self.power_w, 3),
        }
