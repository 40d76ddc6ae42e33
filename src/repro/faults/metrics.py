"""Dependability metrics collected alongside the latency percentiles.

:class:`DependabilityStats` is the fault-run counterpart of
:class:`repro.service.latency.LatencyStats`: a frozen, picklable summary of
how the cluster behaved *as a service* while faults were active --
availability (server-uptime fraction), goodput (completed request rate),
loss accounting (requests lost in crashes vs. unroutable while every server
was down), and time-to-recover (crash to first post-restart completion).
"""

from __future__ import annotations

from dataclasses import dataclass


def availability_from_downtime(
    num_servers: int, duration_s: float, downtime_s: float
) -> float:
    """Server-uptime fraction: ``1 - downtime / (servers * duration)``.

    Args:
        num_servers: cluster size.
        duration_s: observation window length in seconds.
        downtime_s: total server-seconds of downtime inside the window.

    Returns:
        Availability in [0, 1]; 1.0 for an empty window.
    """
    capacity = num_servers * duration_s
    if capacity <= 0:
        return 1.0
    return max(0.0, min(1.0, 1.0 - downtime_s / capacity))


@dataclass(frozen=True)
class DependabilityStats:
    """How a cluster behaved under its fault schedule.

    Attributes:
        availability: server-uptime fraction over the run (1.0 = no
            downtime).
        goodput_qps: completed requests per second of simulated time.
        offered_requests: requests presented to the cluster.
        completed_requests: requests that finished service.
        lost_requests: requests dropped because their server crashed while
            they were queued or in service.
        unrouted_requests: requests that arrived while *every* server was
            down and could not be routed at all.
        crashes: number of server crash events in the run.
        downtime_s: total server-seconds of downtime.
        mean_time_to_recover_s: mean crash-to-first-completion gap over all
            crashes (0.0 when there were none).
        max_time_to_recover_s: the worst such gap (0.0 when none).
    """

    availability: float
    goodput_qps: float
    offered_requests: int
    completed_requests: int
    lost_requests: int
    unrouted_requests: int
    crashes: int
    downtime_s: float
    mean_time_to_recover_s: float
    max_time_to_recover_s: float

    @property
    def goodput_fraction(self) -> float:
        """Completed / offered (1.0 for an empty run)."""
        if self.offered_requests == 0:
            return 1.0
        return self.completed_requests / self.offered_requests
