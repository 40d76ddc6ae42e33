"""Dependability accounting for fault-injected service-cluster runs.

A faulted cluster run is the cluster's own engine handed the
:class:`~repro.faults.events.FaultSchedule` (never a live RNG, so determinism
is inherited from the schedule): the fast kernel
(:func:`repro.service.cluster.faulted_completion_times`) by default, or the
reference event engine (:func:`repro.service.queueing.run_events`) with
``engine="event"``, bit for bit alike.  Stations crash (losing queued and
in-flight work), restart empty once every open crash window has closed, and
straggle; the balancer routes among up servers only.  Either engine leaves a
:class:`~repro.service.queueing.FaultTally` -- one
:class:`~repro.service.queueing.StationTally` per server -- and
:func:`run_faulted` turns it into the accounting: the usual
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
    """Run one cluster simulation under a fault schedule (on its engine).

    Args:
        simulation: the configured simulation (policy, seed, config, engine);
            its request/routing streams are consumed exactly as in an
            un-faulted run.
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
        result, tally = simulation._simulate(num_requests, schedule)

        duration = result.duration_s
        stations = tally.stations
        completed = sum(station.completed for station in stations)
        recoveries: "list[float]" = []
        for station in stations:
            recoveries.extend(station.recovery_times_s)
            recoveries.extend(duration - crash_s for crash_s in station.unresolved_crashes_s)
        downtime = schedule.downtime_s(config.num_servers, duration)
        dependability = DependabilityStats(
            availability=availability_from_downtime(
                config.num_servers, duration, downtime
            ),
            goodput_qps=completed / duration if duration > 0 else 0.0,
            offered_requests=num_requests,
            completed_requests=completed,
            lost_requests=sum(station.lost for station in stations),
            unrouted_requests=tally.unrouted,
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
