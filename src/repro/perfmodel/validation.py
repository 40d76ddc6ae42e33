"""Model-versus-simulation validation helpers (Figure 3.3).

The paper validates its analytic model against cycle-accurate simulation before
using it for the design-space sweep, reporting excellent accuracy up to 16 cores
and divergence at 32--64 cores on workloads with poor software scalability.  This
module computes the same comparison between the predictions of
:func:`~repro.perfmodel.analytic.estimate` and measurements from the
reduced-fidelity simulator in :mod:`repro.sim` (or any other callable
producing aggregate IPC).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.perfmodel.analytic import Pod, estimate
from repro.workloads.profile import WorkloadProfile


@dataclass(frozen=True)
class ValidationPoint:
    """One (workload, configuration) comparison between model and simulation.

    Attributes:
        workload: workload name.
        cores: core count of the configuration.
        interconnect: interconnect name.
        model_ipc: aggregate IPC predicted by the analytic model.
        simulated_ipc: aggregate IPC measured by the simulator.
    """

    workload: str
    cores: int
    interconnect: str
    model_ipc: float
    simulated_ipc: float

    @property
    def relative_error(self) -> float:
        """Signed relative error of the model against the simulation."""
        if self.simulated_ipc == 0:
            return float("inf")
        return (self.model_ipc - self.simulated_ipc) / self.simulated_ipc


@dataclass(frozen=True)
class ValidationReport:
    """Collection of validation points with summary statistics."""

    points: "tuple[ValidationPoint, ...]"

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("a ValidationReport needs at least one point")

    @property
    def mean_absolute_error(self) -> float:
        """Mean absolute relative error across all points."""
        finite = [abs(p.relative_error) for p in self.points if p.simulated_ipc > 0]
        if not finite:
            return float("inf")
        return sum(finite) / len(finite)


SimulatorFn = Callable[[WorkloadProfile, Pod], float]


def validate_against(
    simulate: SimulatorFn,
    workloads: Iterable[WorkloadProfile],
    configs: Sequence[Pod],
) -> ValidationReport:
    """Compare the analytic model against ``simulate`` over a set of design points.

    Args:
        simulate: callable returning the simulated aggregate IPC for
            (workload, config) -- typically a thin wrapper around
            :func:`repro.sim.system.simulate_system`.
        workloads: workload profiles to validate on.
        configs: pods (core counts, interconnects) to validate on.
    """
    points: "list[ValidationPoint]" = []
    for workload in workloads:
        for config in configs:
            predicted = estimate(workload, config).aggregate_ipc
            measured = simulate(workload, config)
            points.append(
                ValidationPoint(
                    workload=workload.name,
                    cores=config.cores,
                    interconnect=config.resolved_interconnect().name,
                    model_ipc=predicted,
                    simulated_ipc=measured,
                )
            )
    return ValidationReport(tuple(points))
