"""Calibrating request service rates from chip-level performance.

The queueing model is anchored to the repo's chip metrics rather than to free
parameters: a service unit is one core inside a pod's coherence domain, its
request throughput is

    ``requests/s = per-core IPC x clock frequency / instructions per request``

with the per-core IPC coming from the analytic performance model evaluated for
the (workload, pod configuration) pair, and the instructions-per-request from
the workload profile (:mod:`repro.workloads.cloudsuite`).  Software
scalability limits apply per pod: a workload that only scales to 16 cores uses
at most 16 service units in each pod regardless of the pod's size.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.chip import ScaleOutChip
from repro.perfmodel.analytic import AnalyticPerformanceModel
from repro.workloads.profile import WorkloadProfile


@dataclass(frozen=True)
class ServiceCapacity:
    """Request-serving capacity of one chip for one workload.

    Attributes:
        design: chip design name.
        workload: workload name.
        units_per_chip: parallel service units (usable cores across all pods).
        unit_rate_rps: requests per second one unit sustains.
        per_core_ipc: modeled per-core IPC backing the rate.
        instructions_per_request: dynamic instructions one request costs.
    """

    design: str
    workload: str
    units_per_chip: int
    unit_rate_rps: float
    per_core_ipc: float
    instructions_per_request: float

    @property
    def chip_rate_rps(self) -> float:
        """Saturation throughput of the whole chip (all units busy)."""
        return self.units_per_chip * self.unit_rate_rps

    @property
    def service_mean_s(self) -> float:
        """Mean service time of one request on one unit."""
        return 1.0 / self.unit_rate_rps


def calibrate_chip(
    chip: ScaleOutChip,
    workload: WorkloadProfile,
    model: "AnalyticPerformanceModel | None" = None,
) -> ServiceCapacity:
    """Derive ``workload``'s service capacity on ``chip`` from the perf model."""
    model = model or AnalyticPerformanceModel()
    estimate = model.estimate(workload, chip.pod)
    frequency_hz = chip.node.frequency_ghz * 1e9
    unit_rate = (
        estimate.per_core_ipc * frequency_hz / workload.instructions_per_request
    )
    units_per_pod = min(chip.pod.cores, workload.max_cores)
    return ServiceCapacity(
        design=chip.name,
        workload=workload.name,
        units_per_chip=units_per_pod * chip.num_pods,
        unit_rate_rps=unit_rate,
        per_core_ipc=estimate.per_core_ipc,
        instructions_per_request=workload.instructions_per_request,
    )
