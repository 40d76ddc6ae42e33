"""The pod: the PD-optimal building block of a Scale-Out Processor.

A pod (Section 3.2.1) tightly couples a number of cores to a modestly sized LLC
through a low-latency interconnect.  Each pod is a complete, stand-alone server
running its own operating system; pods share nothing except the die, the memory
interfaces, and the I/O ports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cores.models import CoreModel, core_model
from repro.interconnect import interconnect_model
from repro.perfmodel.analytic import (
    AnalyticPerformanceModel,
    SystemConfig,
    require_positive_finite,
)
from repro.perfmodel.density import AreaBudget, performance_density
from repro.technology.components import ComponentCatalog
from repro.technology.node import NODE_40NM, TechnologyNode
from repro.workloads.suite import WorkloadSuite, default_suite


@dataclass(frozen=True)
class Pod:
    """One pod: cores + LLC + intra-pod interconnect, a complete server-on-a-die.

    Attributes:
        cores: number of cores in the pod.
        core_type: core microarchitecture ("conventional", "ooo", "inorder").
        llc_capacity_mb: shared LLC capacity of the pod.
        interconnect: intra-pod interconnect ("crossbar", "nocout", "mesh", ...).
        node: technology node the pod is implemented in.
        instruction_replication: whether the LLC replicates instruction blocks
            (used only by the optimized-tiled baselines, never by actual pods).
        effective_capacity_factor: capacity-pressure multiplier forwarded to the
            performance model.
        offchip_traffic_factor: off-chip-traffic multiplier forwarded to the model.
    """

    cores: int
    core_type: str = "ooo"
    llc_capacity_mb: float = 4.0
    interconnect: str = "crossbar"
    node: TechnologyNode = NODE_40NM
    instruction_replication: bool = False
    effective_capacity_factor: float = 1.0
    offchip_traffic_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        require_positive_finite(
            llc_capacity_mb=self.llc_capacity_mb,
            effective_capacity_factor=self.effective_capacity_factor,
            offchip_traffic_factor=self.offchip_traffic_factor,
        )
        core_model(self.core_type)  # validates the core type
        interconnect_model(self.interconnect)  # validates the interconnect

    # --------------------------------------------------------------- helpers
    def config(self) -> SystemConfig:
        """The performance-model configuration corresponding to this pod."""
        return SystemConfig(
            cores=self.cores,
            core_type=self.core_type,
            llc_capacity_mb=self.llc_capacity_mb,
            interconnect=self.interconnect,
            node=self.node,
            instruction_replication=self.instruction_replication,
            effective_capacity_factor=self.effective_capacity_factor,
            offchip_traffic_factor=self.offchip_traffic_factor,
        )

    def core(self) -> CoreModel:
        """The core microarchitecture model used by this pod."""
        return core_model(self.core_type)

    # -------------------------------------------------------------- physical
    def area_budget(self) -> AreaBudget:
        """Itemized pod area: cores, LLC, and intra-pod interconnect."""
        catalog = ComponentCatalog(self.node)
        config = self.config()
        network = config.resolved_interconnect()
        return AreaBudget(
            cores_mm2=catalog.core(self.core().name).area_mm2 * self.cores,
            llc_mm2=catalog.llc_area_mm2(self.llc_capacity_mb),
            interconnect_mm2=network.area_mm2(config.floorplan(), self.node),
        )

    @property
    def area_mm2(self) -> float:
        """Total pod area."""
        return self.area_budget().total_mm2

    @property
    def power_w(self) -> float:
        """Total pod power (cores + LLC + interconnect)."""
        catalog = ComponentCatalog(self.node)
        config = self.config()
        network = config.resolved_interconnect()
        return (
            catalog.core(self.core().name).power_w * self.cores
            + catalog.llc_power_w(self.llc_capacity_mb)
            + network.power_w(config.floorplan(), self.node)
        )

    # ------------------------------------------------------------ performance
    def performance(
        self,
        model: "AnalyticPerformanceModel | None" = None,
        suite: "WorkloadSuite | None" = None,
    ) -> float:
        """Average aggregate application IPC of the pod across the workload suite."""
        model = model or AnalyticPerformanceModel()
        return model.average_aggregate_ipc(self.config(), suite or default_suite())

    def performance_density(
        self,
        model: "AnalyticPerformanceModel | None" = None,
        suite: "WorkloadSuite | None" = None,
    ) -> float:
        """Pod-level performance density: aggregate IPC per mm^2 of pod area."""
        return performance_density(self.performance(model, suite), self.area_mm2)

    def bandwidth_demand_gbps(
        self,
        model: "AnalyticPerformanceModel | None" = None,
        suite: "WorkloadSuite | None" = None,
    ) -> float:
        """Worst-case off-chip bandwidth demand of the pod across the suite."""
        model = model or AnalyticPerformanceModel()
        return model.worst_case_bandwidth_gbps(self.config(), suite or default_suite())

    # ---------------------------------------------------------------- update
    def with_node(self, node: TechnologyNode) -> "Pod":
        """The same pod organization re-targeted to another technology node."""
        return replace(self, node=node)

    def scaled(self, core_factor: int, llc_factor: float) -> "Pod":
        """Pod with core count and LLC capacity multiplied (used by 3D studies)."""
        if core_factor < 1:
            raise ValueError("core_factor must be >= 1")
        if llc_factor <= 0:
            raise ValueError("llc_factor must be positive")
        return replace(
            self,
            cores=self.cores * core_factor,
            llc_capacity_mb=self.llc_capacity_mb * llc_factor,
        )

    def describe(self) -> str:
        """One-line human readable description."""
        return (
            f"{self.cores}x {self.core_type} cores, {self.llc_capacity_mb:g} MB LLC, "
            f"{self.interconnect} interconnect @ {self.node.name}"
        )
