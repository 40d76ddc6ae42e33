"""Dependability accounting for fault-injected service-cluster runs.

A faulted cluster run is the cluster's own event engine,
:func:`repro.service.queueing.run_events`, handed the
:class:`~repro.faults.events.FaultSchedule` (never a live RNG, so determinism
is inherited from the schedule): stations crash (losing queued and in-flight
work), restart empty and straggle, and the balancer routes among up servers
only.  :func:`run_faulted` adds the accounting: the usual
:class:`~repro.service.cluster.ClusterResult` with its ``dependability``
field filled -- availability, goodput, loss accounting, and time-to-recover
(crash to first post-restart completion) alongside the latency percentiles,
which now describe the *completed* requests only.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING

from repro.faults.events import FaultSchedule
from repro.faults.metrics import DependabilityStats, availability_from_downtime

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cluster imports us)
    from repro.service.cluster import ClusterResult, ClusterSimulation


def run_faulted(
    simulation: "ClusterSimulation",
    num_requests: int,
    schedule: FaultSchedule,
) -> "ClusterResult":
    """Run one cluster simulation under a fault schedule (event engine).

    Args:
        simulation: the configured simulation (policy, seed, config); its
            request/routing streams are consumed exactly as in the un-faulted
            event engine.
        num_requests: requests to offer.
        schedule: the fault load; must be non-empty (empty schedules take the
            un-faulted path in :meth:`ClusterSimulation.run` so zero-fault
            runs stay byte-identical).

    Returns:
        A :class:`ClusterResult` whose ``dependability`` field is filled.
    """
    from repro.obs.tracer import get_tracer

    config = simulation.config
    tracer = get_tracer()
    with tracer.span(
        "faults.inject",
        category="faults",
        crashes=len(schedule.crashes),
        stragglers=len(schedule.stragglers),
        servers=config.num_servers,
        requests=num_requests,
    ):
        if tracer.enabled and schedule.stragglers:
            tracer.counter("faults.straggler_windows").add(len(schedule.stragglers))
        result, servers, unrouted = simulation._run_event(num_requests, schedule)

        duration = result.duration_s
        completed = sum(server.completed for server in servers)
        recoveries: "list[float]" = []
        for server in servers:
            recoveries.extend(server.recovery_times_s)
            recoveries.extend(server.unresolved_recoveries(duration))
        downtime = schedule.downtime_s(config.num_servers, duration)
        dependability = DependabilityStats(
            availability=availability_from_downtime(
                config.num_servers, duration, downtime
            ),
            goodput_qps=completed / duration if duration > 0 else 0.0,
            offered_requests=num_requests,
            completed_requests=completed,
            lost_requests=sum(server.lost for server in servers),
            unrouted_requests=unrouted,
            crashes=len(schedule.crashes),
            downtime_s=downtime,
            mean_time_to_recover_s=(
                sum(recoveries) / len(recoveries) if recoveries else 0.0
            ),
            max_time_to_recover_s=max(recoveries, default=0.0),
        )

    if result.measured_requests == 0:
        raise ValueError(
            "fault load left no completed requests in the measurement window; "
            "lower the crash intensity or offer more requests"
        )
    return dataclasses.replace(result, dependability=dependability)
