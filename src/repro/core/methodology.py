"""The scale-out design methodology (Chapter 3).

The methodology has two steps:

1. **Find the PD-optimal pod**: sweep core count and LLC capacity for a given core
   microarchitecture and intra-pod interconnect, evaluate performance density with
   the analytic model, and pick the configuration that maximizes PD.  Because the
   PD peak is nearly flat, the paper prefers a *near-optimal* pod with fewer cores
   (lower coherence/crossbar complexity and no reliance on software scalability):
   the smallest configuration within a small tolerance of the peak.
2. **Compose the chip**: tile as many pods as the die area, power, and memory
   bandwidth budgets allow, provisioning memory channels for the worst-case
   off-chip demand.  Pods are fully independent, so chip throughput is simply the
   pod count times the pod throughput.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.chip import ScaleOutChip
from repro.core.composer import PodEvaluation, fill_die
from repro.memory.dram import channel_for_standard
from repro.perfmodel.analytic import Pod
from repro.technology.node import NODE_40NM, ChipConstraints, TechnologyNode
from repro.workloads.suite import WorkloadSuite, default_suite

#: Core counts swept when searching for the PD-optimal pod (Figures 3.4-3.6).
DEFAULT_CORE_COUNTS: "tuple[int, ...]" = (1, 2, 4, 8, 16, 32, 64, 128, 256)

#: LLC capacities swept when searching for the PD-optimal pod (MB).
DEFAULT_LLC_SIZES_MB: "tuple[float, ...]" = (1.0, 2.0, 4.0, 8.0)

#: Most pods a planar die is filled with.
MAX_PODS = 64


@dataclass(frozen=True)
class PodSweepPoint:
    """One evaluated point of the pod design-space sweep.

    Attributes:
        evaluation: the pod and its suite-wide performance and bandwidth.
        area_mm2: pod area.
        performance_density: performance / area.
    """

    evaluation: PodEvaluation
    area_mm2: float
    performance_density: float

    @property
    def pod(self) -> Pod:
        """The evaluated pod configuration."""
        return self.evaluation.pod

    @property
    def performance(self) -> float:
        """Average aggregate IPC across the workload suite."""
        return self.evaluation.performance


def _near_optimal(
    points: "list[PodSweepPoint]", complexity_tolerance: float
) -> "list[PodSweepPoint]":
    """Points whose PD is within ``complexity_tolerance`` of the peak's."""
    if not 0.0 <= complexity_tolerance < 1.0:
        raise ValueError("complexity_tolerance must be in [0, 1)")
    peak = max(points, key=lambda p: p.performance_density)
    threshold = peak.performance_density * (1.0 - complexity_tolerance)
    return [p for p in points if p.performance_density >= threshold]


def _fewest_cores(points: "list[PodSweepPoint]") -> PodSweepPoint:
    """The lowest-complexity point: fewest cores, then smaller LLC, then higher PD."""
    return min(
        points, key=lambda p: (p.pod.cores, p.pod.llc_capacity_mb, -p.performance_density)
    )


class ScaleOutDesignMethodology:
    """Performance-density driven design of Scale-Out Processors.

    Args:
        node: technology node to design for.
        suite: workload suite used for evaluation (the full CloudSuite by default).
        constraints: chip-level budgets; defaults to the node's constraints.
    """

    def __init__(
        self,
        node: TechnologyNode = NODE_40NM,
        suite: "WorkloadSuite | None" = None,
        constraints: "ChipConstraints | None" = None,
    ):
        self.node = node
        self.suite = suite or default_suite()
        self.constraints = constraints or node.constraints
        self.channel = channel_for_standard(node.memory_standard)

    # ------------------------------------------------------------- the sweep
    def evaluate_pod(self, pod: Pod) -> PodSweepPoint:
        """Evaluate one pod configuration."""
        evaluation = PodEvaluation.of(pod, self.suite)
        area = pod.area_mm2
        return PodSweepPoint(
            evaluation=evaluation,
            area_mm2=area,
            performance_density=evaluation.performance / area,
        )

    def sweep_pods(
        self,
        core_type: str = "ooo",
        core_counts: Sequence[int] = DEFAULT_CORE_COUNTS,
        llc_sizes_mb: Sequence[float] = DEFAULT_LLC_SIZES_MB,
        interconnects: Sequence[str] = ("crossbar",),
    ) -> "list[PodSweepPoint]":
        """Evaluate the full (core count x LLC size x interconnect) pod space."""
        points: "list[PodSweepPoint]" = []
        for interconnect in interconnects:
            for llc_mb in llc_sizes_mb:
                for cores in core_counts:
                    pod = Pod(
                        cores=cores,
                        core_type=core_type,
                        llc_capacity_mb=llc_mb,
                        interconnect=interconnect,
                        node=self.node,
                    )
                    points.append(self.evaluate_pod(pod))
        return points

    # --------------------------------------------------------- pod selection
    def pd_optimal_pod(
        self,
        core_type: str = "ooo",
        core_counts: Sequence[int] = DEFAULT_CORE_COUNTS,
        llc_sizes_mb: Sequence[float] = DEFAULT_LLC_SIZES_MB,
        interconnect: str = "crossbar",
        complexity_tolerance: float = 0.03,
        max_cores: "int | None" = None,
    ) -> PodSweepPoint:
        """Select the preferred pod: near-peak PD with the fewest cores.

        The PD peak is flat (Section 3.4.2), so among all configurations whose PD
        is within ``complexity_tolerance`` of the true peak, the one with the
        fewest cores (breaking ties by smaller LLC) is chosen -- mirroring the
        paper's choice of a 16-core / 4 MB pod over the 32-core true optimum.

        Args:
            max_cores: optional hard cap on pod core count (e.g. crossbar
                implementability limits).
        """
        points = self.sweep_pods(core_type, core_counts, llc_sizes_mb, (interconnect,))
        if max_cores is not None:
            points = [p for p in points if p.pod.cores <= max_cores]
            if not points:
                raise ValueError(f"no pod configurations with <= {max_cores} cores")
        return _fewest_cores(_near_optimal(points, complexity_tolerance))

    # ------------------------------------------------------ chip composition
    def compose_chip(self, pod: Pod, name: "str | None" = None) -> ScaleOutChip:
        """Integrate as many pods as the area/power/bandwidth budgets afford.

        Channels are provisioned for the worst-case demand; if even a single pod
        cannot be supported within the budgets, a one-pod chip is returned (and
        callers can check :meth:`ScaleOutChip.satisfies`).
        """
        evaluation = PodEvaluation.of(pod, self.suite)
        return self._fill_die(evaluation, name or f"Scale-Out ({pod.core_type})")

    def _fill_die(self, evaluation: PodEvaluation, name: str) -> ScaleOutChip:
        return fill_die(evaluation, self.constraints, self.channel, name, MAX_PODS)

    # ------------------------------------------------------------ end-to-end
    def candidate_pods(
        self,
        core_type: str = "ooo",
        interconnect: str = "crossbar",
        complexity_tolerance: float = 0.05,
    ) -> "list[PodSweepPoint]":
        """Pods whose PD is within ``complexity_tolerance`` of the sweep's peak."""
        points = self.sweep_pods(core_type, interconnects=(interconnect,))
        return _near_optimal(points, complexity_tolerance)

    def design(
        self,
        core_type: str = "ooo",
        interconnect: str = "crossbar",
        complexity_tolerance: float = 0.05,
        name: "str | None" = None,
    ) -> ScaleOutChip:
        """Run the full methodology: pick the pod, then fill the die with pods.

        Pod selection is chip-aware (Section 3.2.3, chip-level considerations):
        among the pods whose PD is within ``complexity_tolerance`` of the sweep's
        peak, the one whose *composed chip* reaches the highest chip-level
        performance density is chosen, breaking ties toward fewer cores per pod
        (lower design complexity, no reliance on software scalability).  This is
        what makes the methodology prefer a slightly larger LLC when memory
        bandwidth, rather than area, binds the pod count.
        """
        label = name or f"Scale-Out ({'OoO' if core_type == 'ooo' else core_type.capitalize()})"
        candidates = self.candidate_pods(core_type, interconnect, complexity_tolerance)
        best_chip: "ScaleOutChip | None" = None
        best_key: "tuple[float, float] | None" = None
        for point in candidates:
            chip = self._fill_die(point.evaluation, label)
            if not chip.satisfies(self.constraints):
                continue
            chip_pd = chip.performance() / chip.die_area_mm2
            # Chip PD is compared at coarse granularity so that, when two pod
            # choices are effectively equivalent at the chip level, the smaller
            # (lower-complexity) pod wins -- the paper's 2x16-core choice over a
            # single 32-core pod.
            key = (round(chip_pd, 3), -point.pod.cores)
            if best_key is None or key > best_key:
                best_key = key
                best_chip = chip
        if best_chip is None:
            # Fall back to the pure pod-PD selection if nothing fits the budgets:
            # the fewest-cores pod among the same near-peak candidates.
            best_chip = self._fill_die(_fewest_cores(candidates).evaluation, label)
        return best_chip


def design_scale_out_processor(
    core_type: str = "ooo",
    node: TechnologyNode = NODE_40NM,
    interconnect: str = "crossbar",
    suite: "WorkloadSuite | None" = None,
) -> ScaleOutChip:
    """Convenience entry point: design a Scale-Out Processor for ``core_type`` at ``node``."""
    methodology = ScaleOutDesignMethodology(node=node, suite=suite)
    return methodology.design(core_type=core_type, interconnect=interconnect)
