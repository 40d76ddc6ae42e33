"""The one pod-to-chip path: evaluate a pod once, then fill a die with copies.

Section 3.2.3 composes a chip by integrating identical pods until die area,
power, or memory bandwidth binds, provisioning memory channels for the
worst-case off-chip demand.  Every builder -- the 2D methodology, the
whole-die baselines, the 3D study, and the design-space evaluators -- goes
through :class:`PodEvaluation` (one pass of the analytic model over the
suite) and :func:`compose_chip` (one chip from an evaluation and a pod
count); :func:`fill_die` is the fill-the-die loop over it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.chip import ScaleOutChip
from repro.memory.dram import DramChannel
from repro.memory.provisioning import channels_required
from repro.perfmodel.analytic import AnalyticPerformanceModel, Pod
from repro.technology.node import ChipConstraints
from repro.workloads.suite import WorkloadSuite


@dataclass(frozen=True)
class PodEvaluation:
    """The suite-wide figures of one pod, the unit a chip is tiled from.

    Attributes:
        pod: the (logical) pod; a stack's scaled pod for 3D chips.
        performance: average aggregate IPC across the workload suite.
        bandwidth_gbps: worst-case off-chip bandwidth demand across the suite.
        num_dies: stacked logic dies the pod spans (1 for planar chips).
    """

    pod: Pod
    performance: float
    bandwidth_gbps: float
    num_dies: int = 1

    @classmethod
    def of(
        cls, pod: Pod, model: AnalyticPerformanceModel, suite: WorkloadSuite
    ) -> "PodEvaluation":
        """Evaluate ``pod`` with one pass of suite estimates.

        The bandwidth matches
        :meth:`AnalyticPerformanceModel.worst_case_bandwidth_gbps` term for
        term, so the figure is bit-identical to it.
        """
        estimates = model.suite_estimates(pod, suite)
        return cls(
            pod=pod,
            performance=sum(e.aggregate_ipc for e in estimates.values()) / len(estimates),
            bandwidth_gbps=max(e.offchip_bandwidth_gbps for e in estimates.values()),
        )


def compose_chip(
    evaluation: PodEvaluation,
    num_pods: int,
    channel: DramChannel,
    name: str,
    max_channels: "int | None" = None,
) -> ScaleOutChip:
    """``num_pods`` copies of the evaluated pod with demand-provisioned channels.

    Channels cover ``num_pods`` times the pod's worst-case demand on
    ``channel``; ``max_channels`` caps them when given.
    """
    channels = channels_required(evaluation.bandwidth_gbps * num_pods, channel)
    if max_channels is not None:
        channels = min(channels, max_channels)
    return ScaleOutChip(
        name=name,
        pod=evaluation.pod,
        num_pods=num_pods,
        memory_channels=channels,
        num_dies=evaluation.num_dies,
        pod_performance=evaluation.performance,
    )


def fill_die(
    evaluation: PodEvaluation,
    constraints: ChipConstraints,
    channel: DramChannel,
    name: str,
    max_pods: int,
) -> ScaleOutChip:
    """The chip with the most pods (up to ``max_pods``) that fits ``constraints``.

    Pods are added one at a time until the composed chip's own die area,
    power, or channel count busts a budget.  If even one pod does not fit,
    a one-pod chip with channels capped at the budget is returned (callers
    can check :meth:`ScaleOutChip.satisfies`).
    """
    best: "ScaleOutChip | None" = None
    for num_pods in range(1, max_pods + 1):
        chip = compose_chip(evaluation, num_pods, channel, name)
        if not chip.satisfies(constraints):
            break
        best = chip
    if best is None:
        best = compose_chip(evaluation, 1, channel, name, constraints.max_memory_channels)
    return best
