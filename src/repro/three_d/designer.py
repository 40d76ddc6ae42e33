"""3D design-space exploration (Figures 6.4-6.7 and Table 6.2).

The study sweeps pod configurations and stacked-die counts under the Chapter 6
budgets (250-280 mm^2 per logic die, 250 W, up to six DDR4 channels), evaluates
3D performance density for both stacking strategies, and composes chip-level
3D Scale-Out Processors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.chip import ScaleOutChip
from repro.core.composer import PodEvaluation, fill_die
from repro.memory.dram import DDR4_2133
from repro.memory.provisioning import channels_required
from repro.perfmodel.analytic import AnalyticPerformanceModel, Pod
from repro.technology.node import NODE_40NM, ChipConstraints, TechnologyNode
from repro.three_d.stacking import StackedPod, stack_fixed_distance, stack_fixed_pod
from repro.workloads.suite import WorkloadSuite, default_suite

#: Chapter 6 chip budgets: liquid-cooled 3D stacks allow 250 W; DDR4 interfaces.
CONSTRAINTS_3D = ChipConstraints(max_area_mm2=280.0, max_power_w=250.0, max_memory_channels=6)

#: Most stacked pods one logic-die footprint is filled with.
MAX_PODS_3D = 32


@dataclass(frozen=True)
class ThreeDDesignPoint:
    """One evaluated 3D configuration."""

    stacked_pod: StackedPod
    performance: float
    performance_density: float
    footprint_mm2: float

    @property
    def label(self) -> str:
        """Figure 6.5 / 6.7 style label."""
        return self.stacked_pod.describe()


class ThreeDDesignStudy:
    """Sweeps and composes 3D Scale-Out Processors."""

    def __init__(
        self,
        node: TechnologyNode = NODE_40NM,
        model: "AnalyticPerformanceModel | None" = None,
        suite: "WorkloadSuite | None" = None,
        constraints: ChipConstraints = CONSTRAINTS_3D,
    ):
        self.node = node
        self.model = model or AnalyticPerformanceModel()
        self.suite = suite or default_suite()
        self.constraints = constraints

    # ------------------------------------------------------------------ sweep
    def evaluate(self, stacked_pod: StackedPod) -> ThreeDDesignPoint:
        """Evaluate one stacked-pod configuration."""
        performance = stacked_pod.performance(self.model, self.suite)
        return ThreeDDesignPoint(
            stacked_pod=stacked_pod,
            performance=performance,
            performance_density=performance
            / (stacked_pod.footprint_mm2 * stacked_pod.num_dies),
            footprint_mm2=stacked_pod.footprint_mm2,
        )

    def sweep(
        self,
        core_type: str = "ooo",
        core_counts: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256),
        llc_sizes_mb: Sequence[float] = (2.0, 4.0, 8.0, 16.0, 32.0),
        num_dies: int = 1,
        interconnect: str = "crossbar",
    ) -> "list[ThreeDDesignPoint]":
        """PD sweep for Figures 6.4 / 6.6: fixed-pod stacks of every configuration."""
        points: "list[ThreeDDesignPoint]" = []
        for llc_mb in llc_sizes_mb:
            for cores in core_counts:
                pod = Pod(
                    cores=cores,
                    core_type=core_type,
                    llc_capacity_mb=llc_mb,
                    interconnect=interconnect,
                    node=self.node,
                )
                points.append(self.evaluate(stack_fixed_pod(pod, num_dies)))
        return points

    def compare_strategies(
        self,
        base_pod: Pod,
        die_counts: Sequence[int] = (1, 2, 4),
    ) -> "list[ThreeDDesignPoint]":
        """Fixed-pod versus fixed-distance comparison (Figures 6.5 / 6.7)."""
        points: "list[ThreeDDesignPoint]" = []
        for dies in die_counts:
            points.append(self.evaluate(stack_fixed_pod(base_pod, dies)))
            if dies > 1:
                points.append(self.evaluate(stack_fixed_distance(base_pod, dies)))
        return points

    def best_strategy(self, base_pod: Pod, num_dies: int) -> ThreeDDesignPoint:
        """The better of the two strategies for ``num_dies`` stacked dies.

        Bandwidth-infeasible configurations (worst-case demand beyond six DDR4
        channels per chip even for a single pod) are discarded first, which is
        what pushes in-order designs toward the fixed-distance strategy at three
        or more dies (Section 6.6.2).
        """
        candidates = []
        for strategy_builder in (stack_fixed_pod, stack_fixed_distance):
            stacked = strategy_builder(base_pod, num_dies)
            demand = stacked.bandwidth_demand_gbps(self.model, self.suite)
            channels = channels_required(demand, DDR4_2133)
            if channels > self.constraints.max_memory_channels:
                continue
            candidates.append(self.evaluate(stacked))
        if not candidates:
            # Every option is bandwidth-bound; return the fixed-pod stack anyway.
            return self.evaluate(stack_fixed_pod(base_pod, num_dies))
        return max(candidates, key=lambda p: p.performance_density)

    # ----------------------------------------------------------- chip assembly
    def compose_chip(self, stacked_pod: StackedPod, name: "str | None" = None) -> ScaleOutChip:
        """Fill one logic-die footprint with as many stacked pods as the budgets allow."""
        label = name or f"3D Scale-Out ({stacked_pod.base_pod.core_type}, L={stacked_pod.num_dies})"
        evaluation = PodEvaluation(
            pod=stacked_pod.pod,
            performance=stacked_pod.performance(self.model, self.suite),
            bandwidth_gbps=stacked_pod.bandwidth_demand_gbps(self.model, self.suite),
            num_dies=stacked_pod.num_dies,
        )
        return fill_die(evaluation, self.constraints, DDR4_2133, label, MAX_PODS_3D)

    def specification_table(
        self,
        core_type: str = "ooo",
        base_pod: "Pod | None" = None,
        die_counts: Sequence[int] = (1, 2, 4),
    ) -> "list[dict[str, float | int | str]]":
        """Table 6.2 style rows: 2D pod plus fixed-pod / fixed-distance stacks."""
        if base_pod is None:
            from repro.core.methodology import ScaleOutDesignMethodology

            methodology = ScaleOutDesignMethodology(
                node=self.node, model=self.model, suite=self.suite
            )
            base_pod = methodology.pd_optimal_pod(core_type=core_type).pod
        rows: "list[dict[str, float | int | str]]" = []
        for dies in die_counts:
            configs = [("2D Pod" if dies == 1 else "Fixed-Pod", stack_fixed_pod(base_pod, dies))]
            if dies > 1:
                configs.append(("Fixed-Distance", stack_fixed_distance(base_pod, dies)))
            for label, stacked in configs:
                point = self.evaluate(stacked)
                chip = self.compose_chip(stacked)
                rows.append(
                    {
                        "core_type": core_type,
                        "dies": dies,
                        "configuration": label,
                        "pods": chip.num_pods,
                        "pod_cores": stacked.cores,
                        "pod_llc_mb": stacked.llc_capacity_mb,
                        "memory_channels": chip.memory_channels,
                        "performance_density": round(point.performance_density, 4),
                    }
                )
        return rows
