"""Per-server request queues and the one event runner that drives them.

A :class:`RequestServer` is one FCFS queue feeding ``parallelism`` identical
service units -- a G/G/k station.  The parallelism is derived from the chip
organization (usable cores per server, see
:mod:`repro.service.calibration`); requests beyond the free units wait in an
unbounded FIFO queue, matching the open-loop arrival model.  A station can
also crash, restart and straggle; :class:`StationTally` is what a faulted run
leaves of it for the dependability accounting, whichever engine ran.

:func:`run_events` is the reference event path of the cluster simulation
(faulted or not) and of the fleet's chunks: ``engine="event"`` runs it, and
the fast engine (:func:`repro.service.cluster.simulate_chunk`) reproduces it
bit for bit.  It drives the stations on one
:class:`repro.sim.engine.EventQueue` in *seconds* (the engine is agnostic).
Service times are generated up front with the arrivals, so simulations at
different loads with the same seed reuse identical per-request work -- the
common-random-numbers structure behind monotone load sweeps.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.service.balancer import make_balancer
from repro.service.latency import LatencyCollector
from repro.sim.engine import EventQueue

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.faults.events import FaultSchedule, Straggler


@dataclass(frozen=True)
class Request:
    """One user request.

    Attributes:
        index: arrival sequence number (0-based).
        arrival_s: absolute arrival time in seconds.
        service_s: work the request costs one service unit, in seconds.
    """

    index: int
    arrival_s: float
    service_s: float


@dataclass(frozen=True)
class StationTally:
    """One station's totals after a faulted run, as either engine reports them.

    Attributes:
        completed: requests that finished service.
        lost: requests dropped by this station's crashes.
        busy_time_s: unit-seconds spent on completed requests.
        recovery_times_s: crash-to-first-completion gaps, in resolution order.
        unresolved_crashes_s: crash times no later completion resolved.
    """

    completed: int
    lost: int
    busy_time_s: float
    recovery_times_s: "tuple[float, ...]"
    unresolved_crashes_s: "tuple[float, ...]"


@dataclass(frozen=True)
class FaultTally:
    """What a faulted run leaves for the dependability accounting.

    Attributes:
        stations: one :class:`StationTally` per server, in id order.
        duration_s: time of the last event the run fired.
        unrouted: requests that arrived while every server was down.
    """

    stations: "tuple[StationTally, ...]"
    duration_s: float
    unrouted: int


class RequestServer:
    """FCFS queue in front of ``parallelism`` parallel service units.

    Crash semantics: everything queued or in service is lost, and an epoch
    counter invalidates the completion events already sitting in the engine
    (they fire, see a stale epoch, and do nothing).  The station stays down
    until every crash window that opened on it has closed, so overlapping
    windows keep it down over their union.  Straggler semantics: a
    request starting service inside one of ``stragglers``' windows costs
    ``slowdown`` times its nominal service time; the multiplier is sampled
    once at start-of-service.
    """

    def __init__(
        self,
        server_id: int,
        parallelism: int,
        engine: EventQueue,
        collector: LatencyCollector,
        stragglers: "Iterable[Straggler]" = (),
    ):
        if parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        self.server_id = server_id
        self.parallelism = parallelism
        self.engine = engine
        self.collector = collector
        self.queue: "deque[Request]" = deque()
        self.busy_units = 0
        self.completed = 0
        self.busy_time_s = 0.0
        #: Crash windows opened and not yet closed by their restart.
        self.open_crashes = 0
        self.epoch = 0
        self.lost = 0
        #: (at_s, until_s, slowdown) windows, time order; few per run.
        self.stragglers = tuple(
            (window.at_s, window.until_s, window.slowdown) for window in stragglers
        )
        #: Crash times awaiting their first post-restart completion.
        self._pending_recoveries: "list[float]" = []
        #: Resolved crash-to-completion gaps.
        self.recovery_times_s: "list[float]" = []

    @property
    def up(self) -> bool:
        """Whether the station serves: no crash window of it is open."""
        return not self.open_crashes

    @property
    def backlog(self) -> int:
        """Requests on this server (queued plus in service); what balancers read."""
        return len(self.queue) + self.busy_units

    def slowdown_at(self, now: float) -> float:
        """The service-time multiplier in effect at ``now`` (>= 1)."""
        factor = 1.0
        for at_s, until_s, slowdown in self.stragglers:
            if at_s <= now < until_s and slowdown > factor:
                factor = slowdown
        return factor

    def offer(self, request: Request) -> None:
        """Accept an arriving request: start service or enqueue."""
        if self.busy_units < self.parallelism:
            self._start(request)
        else:
            self.queue.append(request)

    def _start(self, request: Request) -> None:
        self.busy_units += 1
        service_s = request.service_s * self.slowdown_at(self.engine.now)
        epoch = self.epoch
        self.engine.schedule(
            service_s, lambda: self._complete(request, epoch, service_s)
        )

    def _complete(self, request: Request, epoch: int, service_s: float) -> None:
        if epoch != self.epoch:
            # The server crashed after this request started; it was already
            # counted as lost and the unit it held no longer exists.
            return
        self.busy_units -= 1
        self.completed += 1
        self.busy_time_s += service_s
        now = self.engine.now
        self.collector.record(request.index, self.server_id, now - request.arrival_s)
        if self._pending_recoveries:
            # First completion since the (post-restart) server came back:
            # every outstanding crash recovers here.
            self.recovery_times_s.extend(
                now - crash_s for crash_s in self._pending_recoveries
            )
            self._pending_recoveries.clear()
        if self.queue:
            self._start(self.queue.popleft())

    def crash(self) -> int:
        """Go down now; returns how many requests were lost."""
        lost = self.busy_units + len(self.queue)
        self.lost += lost
        self.queue.clear()
        self.busy_units = 0
        self.epoch += 1
        self.open_crashes += 1
        self._pending_recoveries.append(self.engine.now)
        return lost

    def restart(self) -> None:
        """Close one crash window; rejoin, empty, once none is open."""
        self.open_crashes -= 1

    def tally(self) -> StationTally:
        """This station's totals for the dependability accounting."""
        return StationTally(
            completed=self.completed,
            lost=self.lost,
            busy_time_s=self.busy_time_s,
            recovery_times_s=tuple(self.recovery_times_s),
            unresolved_crashes_s=tuple(self._pending_recoveries),
        )

    def utilization(self, duration_s: float) -> float:
        """Fraction of unit-time spent serving over ``duration_s``."""
        if duration_s <= 0:
            return 0.0
        return self.busy_time_s / (duration_s * self.parallelism)


def check_request_stream(
    arrivals: "list[float] | np.ndarray", services: "list[float] | np.ndarray"
) -> None:
    """Reject a request stream that the two engines would replay differently.

    Both engines take request ``i`` to arrive at ``arrivals[i]`` in index
    order; the fast engine also finds each completion's drain point by
    bisecting ``arrivals``.  So arrivals must be finite, non-negative and
    non-decreasing, and services finite and non-negative, one per arrival.
    Float64 arrays are checked in place, lists are converted.

    Raises:
        ValueError: one line naming ``arrivals`` or ``services``.
    """
    if len(arrivals) != len(services):
        raise ValueError(
            f"services must give one time per arrival: {len(services)} services "
            f"for {len(arrivals)} arrivals"
        )
    times = np.asarray(arrivals, dtype=np.float64)
    # Non-decreasing (so nan-free), from >= 0 up to a finite last arrival.
    if times.size and not (
        (times[1:] >= times[:-1]).all() and times[0] >= 0.0 and times[-1] < np.inf
    ):
        raise ValueError("arrivals must be finite, non-negative and non-decreasing")
    work = np.asarray(services, dtype=np.float64)
    if not (np.isfinite(work).all() and (work >= 0.0).all()):
        raise ValueError("services must be finite and non-negative")


def run_events(
    arrivals: "list[float]",
    services: "list[float]",
    policy: str,
    num_servers: int,
    parallelism: int,
    rseed: int,
    collector: LatencyCollector,
    schedule: "FaultSchedule | None" = None,
) -> "tuple[list[RequestServer], float, int]":
    """Run one request stream to completion on the event engine.

    Request ``i`` arrives at ``arrivals[i]`` and costs ``services[i]``; the
    ``policy`` balancer routes it at arrival time on live backlogs, drawing
    from ``random.Random(rseed)``, and ``collector.record`` (any object with
    that method) sees each completion.  ``schedule`` adds server crashes,
    restarts and straggler windows; its events are scheduled before any
    arrival, so the insertion-order tie-break runs them ahead of a same-time
    arrival.  The balancer selects among **up** servers only, and a request
    arriving while every server is down is *unrouted*.  ``None`` is the
    un-faulted run.

    A stream that fails :func:`check_request_stream` is rejected.

    Returns:
        ``(stations, duration_s, unrouted)``: the stations, the time of the
        last event, and the number of requests that found no up server.
    """
    from repro.obs.tracer import get_tracer

    check_request_stream(arrivals, services)
    tracer = get_tracer()
    engine = EventQueue()
    stragglers = schedule.stragglers if schedule is not None else ()
    servers = [
        RequestServer(
            i, parallelism, engine, collector, [s for s in stragglers if s.server == i]
        )
        for i in range(num_servers)
    ]
    balancer = make_balancer(policy)
    routing_rng = random.Random(rseed)
    up = servers
    unrouted = 0

    def crash_server(server: RequestServer) -> None:
        """Take one server down, counting its lost requests."""
        nonlocal up
        lost = server.crash()
        up = [s for s in servers if s.up]
        if tracer.enabled:
            tracer.counter("faults.server_crash").add()
            tracer.counter("faults.requests_lost").add(lost)

    def restart_server(server: RequestServer) -> None:
        """Bring one server back up."""
        nonlocal up
        server.restart()
        up = [s for s in servers if s.up]
        if tracer.enabled:
            tracer.counter("faults.server_restart").add()

    def route(request: Request) -> None:
        """Balance among up servers; count the request unrouted if none."""
        nonlocal unrouted
        if not up:
            unrouted += 1
            if tracer.enabled:
                tracer.counter("faults.requests_unrouted").add()
            return
        up[balancer.select(up, routing_rng)].offer(request)

    if schedule is not None:
        for crash in schedule.crashes:
            server = servers[crash.server]
            engine.schedule_at(crash.at_s, lambda server=server: crash_server(server))
            engine.schedule_at(
                crash.restart_s, lambda server=server: restart_server(server)
            )
    for index, (arrival, service) in enumerate(zip(arrivals, services)):
        request = Request(index, arrival, service)
        engine.schedule_at(arrival, lambda request=request: route(request))
    engine.run()
    if tracer.enabled:
        tracer.counter("service.events").add(engine.processed)
    return servers, engine.now, unrouted
