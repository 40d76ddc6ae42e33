"""3D pod stacking strategies (fixed-pod and fixed-distance)."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.perfmodel.analytic import Pod, aggregate_ipcs_at_network_latency, llc_access_latency
from repro.workloads.suite import WorkloadSuite, default_suite


class StackingStrategy(enum.Enum):
    """How a pod exploits additional stacked logic dies (Section 6.2)."""

    FIXED_POD = "fixed-pod"
    FIXED_DISTANCE = "fixed-distance"


@dataclass(frozen=True)
class StackedPod:
    """A pod implemented across ``num_dies`` stacked logic dies.

    Attributes:
        base_pod: the per-die (2D) pod organization the stack is built from.
        num_dies: number of stacked logic dies (1 = planar).
        strategy: fixed-pod (same pod, smaller footprint / shorter distance) or
            fixed-distance (pod grows with the dies at constant footprint).
    """

    base_pod: Pod
    num_dies: int = 1
    strategy: StackingStrategy = StackingStrategy.FIXED_POD

    def __post_init__(self) -> None:
        if self.num_dies < 1:
            raise ValueError("num_dies must be >= 1")

    # ------------------------------------------------------------ organization
    @property
    def pod(self) -> Pod:
        """The logical pod of the stack (scaled up under fixed-distance)."""
        if self.strategy is StackingStrategy.FIXED_DISTANCE and self.num_dies > 1:
            return self.base_pod.scaled(self.num_dies, float(self.num_dies))
        return self.base_pod

    @property
    def cores(self) -> int:
        """Total cores in the stacked pod."""
        return self.pod.cores

    @property
    def llc_capacity_mb(self) -> float:
        """Total LLC capacity in the stacked pod."""
        return self.pod.llc_capacity_mb

    @property
    def footprint_mm2(self) -> float:
        """Per-die footprint of the stacked pod.

        Under fixed-pod the 2D pod is spread across the dies; under fixed-distance
        every die carries one copy of the base pod's resources.
        """
        if self.strategy is StackingStrategy.FIXED_POD:
            return self.base_pod.area_mm2 / self.num_dies
        return self.base_pod.area_mm2

    # ----------------------------------------------------------------- timing
    def network_latency_cycles(self) -> float:
        """Average core-to-LLC network latency of the stacked pod.

        Vertical (TSV) hops are free; the horizontal wire-distance component of
        the 2D latency shrinks with the per-die footprint, so the excess over the
        4-cycle arbitration floor scales with ``sqrt(footprint ratio)``.  Under
        fixed-distance the latency equals the base (single-die) pod's latency by
        construction.
        """
        base_latency = llc_access_latency(self.base_pod).network_cycles
        if self.strategy is StackingStrategy.FIXED_DISTANCE or self.num_dies == 1:
            return base_latency
        floor = 4.0
        excess = max(0.0, base_latency - floor)
        return floor + excess / math.sqrt(self.num_dies)

    # ------------------------------------------------------------ performance
    def performance(self, suite: "WorkloadSuite | None" = None) -> float:
        """Average aggregate IPC of the stacked pod across the workload suite."""
        suite = suite or default_suite()
        ipcs = aggregate_ipcs_at_network_latency(suite, self.pod, self.network_latency_cycles())
        total = 0.0  # a plain loop: sum() compensates on Python >= 3.12
        for ipc in ipcs:
            total += ipc
        return total / len(suite)

    def describe(self) -> str:
        """Short label used in Figure 6.5 / 6.7 style outputs."""
        return f"{self.cores}c-{self.llc_capacity_mb:g}MB (L={self.num_dies}, {self.strategy.value})"


def stack_fixed_pod(base_pod: Pod, num_dies: int) -> StackedPod:
    """Stack ``base_pod`` across ``num_dies`` dies keeping its resources constant."""
    return StackedPod(base_pod=base_pod, num_dies=num_dies, strategy=StackingStrategy.FIXED_POD)


def stack_fixed_distance(base_pod: Pod, num_dies: int) -> StackedPod:
    """Grow ``base_pod`` with the die count at a constant per-die footprint."""
    return StackedPod(
        base_pod=base_pod, num_dies=num_dies, strategy=StackingStrategy.FIXED_DISTANCE
    )
