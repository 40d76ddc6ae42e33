"""Discrete-event cluster engine: the oracle for ``simulate_chunk``.

Each server is a :class:`RequestServer` -- one FCFS queue feeding
``parallelism`` identical service units, a G/G/k station -- driven on one
:class:`repro.sim.engine.EventQueue` in seconds.  A balancer object picks the
server for each arriving request from the servers' live backlogs, drawing
from ``random.Random(rseed)``; a fault schedule adds crashes, restarts and
straggler windows as events.  The package's kernels
(:func:`repro.service.cluster.simulate_chunk`) replay the same routing and
completion times without event objects; the tests hold the two to
bit-identical completions, equal assignments and equal fault tallies.

:func:`simulate_chunk_events` has ``simulate_chunk``'s signature and return
convention.  :func:`event_engine` patches it into ``repro.service.cluster``
and ``repro.fleet.engine``, so a test can compare whole cluster results and
fleet days; :func:`assert_matches_event_run` derives a cluster result's
figures on the oracle's side alone.
"""

from __future__ import annotations

import contextlib
import math
import random
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence
from unittest import mock

import numpy as np
import pytest

import repro.fleet.engine as fleet_engine
import repro.service.cluster as cluster
from repro.service.cluster import FaultTally, StationTally, check_request_stream
from repro.sim.engine import EventQueue

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.faults.events import FaultSchedule, Straggler


@dataclass(frozen=True)
class Request:
    """One user request: arrival sequence number, arrival time, unit work."""

    index: int
    arrival_s: float
    service_s: float


class RandomBalancer:
    """Pick a server uniformly at random."""

    def select(self, servers: "Sequence[RequestServer]", rng: random.Random) -> int:
        """One uniform draw from ``rng`` over the server indices."""
        return rng.randrange(len(servers))


class RoundRobinBalancer:
    """Rotate through the servers in order; ``rng`` is never drawn from."""

    def __init__(self) -> None:
        self._next = 0

    def select(self, servers: "Sequence[RequestServer]", rng: random.Random) -> int:
        """The next index in rotation."""
        index = self._next % len(servers)
        self._next += 1
        return index


class JoinShortestQueue:
    """The server with the smallest backlog; ties go to the lowest index."""

    def select(self, servers: "Sequence[RequestServer]", rng: random.Random) -> int:
        """Index of the first server holding the minimum backlog."""
        backlogs = [server.backlog for server in servers]
        return backlogs.index(min(backlogs))


class PowerOfTwoChoices:
    """Probe two distinct random servers; join the one with the smaller backlog."""

    def select(self, servers: "Sequence[RequestServer]", rng: random.Random) -> int:
        """Two draws from ``rng`` (none for one server); ties keep the first."""
        if len(servers) == 1:
            return 0
        first = rng.randrange(len(servers))
        second = rng.randrange(len(servers) - 1)
        if second >= first:
            second += 1
        if servers[second].backlog < servers[first].backlog:
            return second
        return first


BALANCERS = {
    "random": RandomBalancer,
    "round_robin": RoundRobinBalancer,
    "jsq": JoinShortestQueue,
    "po2": PowerOfTwoChoices,
}


class RequestServer:
    """FCFS queue in front of ``parallelism`` parallel service units.

    A completion writes its time into ``completions[request.index]``, so a
    lost request keeps the ``nan`` it started with.  A crash loses
    everything queued or in service and bumps an epoch counter,
    so the completion events already in the engine fire, see a stale epoch
    and do nothing.  The station stays down until every crash window opened
    on it has closed.  A request starting service inside one of
    ``stragglers``' windows costs the largest open ``slowdown`` times its
    nominal service time.
    """

    def __init__(
        self,
        server_id: int,
        parallelism: int,
        engine: EventQueue,
        completions: "list[float]",
        stragglers: "Iterable[Straggler]" = (),
    ):
        self.server_id = server_id
        self.parallelism = parallelism
        self.engine = engine
        self.completions = completions
        self.queue: "deque[Request]" = deque()
        self.busy_units = 0
        self.completed = 0
        self.busy_time_s = 0.0
        self.open_crashes = 0
        self.epoch = 0
        self.lost = 0
        self.stragglers = tuple(
            (window.at_s, window.until_s, window.slowdown) for window in stragglers
        )
        #: Crash times awaiting their first post-restart completion.
        self.pending_recoveries: "list[float]" = []
        self.recovery_times_s: "list[float]" = []

    @property
    def up(self) -> bool:
        """Whether the station serves: no crash window of it is open."""
        return not self.open_crashes

    @property
    def backlog(self) -> int:
        """Requests on this server (queued plus in service); what balancers read."""
        return len(self.queue) + self.busy_units

    def offer(self, request: Request) -> None:
        """Accept an arriving request: start service or enqueue."""
        if self.busy_units < self.parallelism:
            self._start(request)
        else:
            self.queue.append(request)

    def _start(self, request: Request) -> None:
        self.busy_units += 1
        now = self.engine.now
        factor = 1.0
        for at_s, until_s, slowdown in self.stragglers:
            if at_s <= now < until_s and slowdown > factor:
                factor = slowdown
        service_s = request.service_s * factor
        epoch = self.epoch
        self.engine.schedule(
            service_s, lambda: self._complete(request, epoch, service_s)
        )

    def _complete(self, request: Request, epoch: int, service_s: float) -> None:
        if epoch != self.epoch:
            return
        self.busy_units -= 1
        self.completed += 1
        self.busy_time_s += service_s
        now = self.engine.now
        self.completions[request.index] = now
        if self.pending_recoveries:
            self.recovery_times_s.extend(now - crash_s for crash_s in self.pending_recoveries)
            self.pending_recoveries.clear()
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
        self.pending_recoveries.append(self.engine.now)
        return lost

    def tally(self) -> StationTally:
        """This station's totals for the dependability accounting."""
        return StationTally(
            completed=self.completed,
            lost=self.lost,
            busy_time_s=self.busy_time_s,
            recovery_times_s=tuple(self.recovery_times_s),
            unresolved_crashes_s=tuple(self.pending_recoveries),
        )


def run_events(
    arrivals: "list[float]",
    services: "list[float]",
    policy: str,
    num_servers: int,
    parallelism: int,
    rseed: int,
    schedule: "FaultSchedule | None" = None,
) -> "tuple[list[RequestServer], float, list[float], list[int], int]":
    """Run one request stream to completion on the event engine.

    Crashes and restarts are scheduled before any arrival, so the engine's
    insertion-order tie-break fires them ahead of a same-time arrival.  The
    balancer selects among up servers only; a request arriving while every
    server is down is unrouted.

    Returns:
        ``(stations, duration_s, completions, assignment, unrouted)``: the
        stations, the time of the last event, each request's completion time
        (``nan`` if lost or unrouted) and server (``-1`` if unrouted), and
        the number of unrouted requests.
    """
    from repro.obs.tracer import get_tracer

    check_request_stream(arrivals, services)
    if policy not in BALANCERS:
        raise ValueError(f"unknown balancer policy {policy!r}")
    tracer = get_tracer()
    engine = EventQueue()
    completions = [math.nan] * len(arrivals)
    assignment = [-1] * len(arrivals)
    stragglers = schedule.stragglers if schedule is not None else ()
    servers = [
        RequestServer(
            i, parallelism, engine, completions, [s for s in stragglers if s.server == i]
        )
        for i in range(num_servers)
    ]
    balancer = BALANCERS[policy]()
    routing_rng = random.Random(rseed)
    up = servers
    unrouted = 0

    def crash_server(server: RequestServer) -> None:
        nonlocal up
        lost = server.crash()
        up = [s for s in servers if s.up]
        if tracer.enabled:
            tracer.counter("faults.server_crash").add()
            tracer.counter("faults.requests_lost").add(lost)

    def restart_server(server: RequestServer) -> None:
        nonlocal up
        server.open_crashes -= 1
        up = [s for s in servers if s.up]
        if tracer.enabled:
            tracer.counter("faults.server_restart").add()

    def route(request: Request) -> None:
        nonlocal unrouted
        if not up:
            unrouted += 1
            if tracer.enabled:
                tracer.counter("faults.requests_unrouted").add()
            return
        server = up[balancer.select(up, routing_rng)]
        assignment[request.index] = server.server_id
        server.offer(request)

    if schedule is not None:
        for crash in schedule.crashes:
            server = servers[crash.server]
            engine.schedule_at(crash.at_s, lambda server=server: crash_server(server))
            engine.schedule_at(crash.restart_s, lambda server=server: restart_server(server))
    for index, (arrival, service) in enumerate(zip(arrivals, services)):
        request = Request(index, arrival, service)
        engine.schedule_at(arrival, lambda request=request: route(request))
    engine.run()
    return servers, engine.now, completions, assignment, unrouted


def simulate_chunk_events(
    arrivals: "list[float]",
    services: "list[float]",
    policy: str,
    num_servers: int,
    parallelism: int,
    rseed: int,
    schedule: "FaultSchedule | None" = None,
) -> "tuple":
    """:func:`~repro.service.cluster.simulate_chunk` on the event engine.

    Returns:
        ``(completions, assignment)`` lists; with a ``schedule``,
        ``(completions, assignment, tally)`` with the run's
        :class:`~repro.service.cluster.FaultTally`.
    """
    servers, duration, completions, assignment, unrouted = run_events(
        arrivals, services, policy, num_servers, parallelism, rseed, schedule
    )
    if schedule is None:
        return completions, assignment
    tally = FaultTally(tuple(server.tally() for server in servers), duration, unrouted)
    return completions, assignment, tally


def assert_matches_event_run(
    result: "cluster.ClusterResult",
    num_requests: int,
    seed: int,
    schedule: "FaultSchedule | None" = None,
) -> None:
    """Hold a :class:`~repro.service.cluster.ClusterResult` to the oracle's
    own account of the same run.

    The oracle replays ``simulate_cluster(result.config, num_requests, seed,
    faults=schedule)`` and derives the figures without the package's
    aggregation: the duration is the event queue's clock, utilization the
    stations' busy time summed in event order, and the measured latencies
    and per-server counts are tallied request by request past the warmup.
    Latencies are compared sorted, bit for bit; utilization approximately,
    because the package sums busy time in another order.
    """
    config = result.config
    arrivals, services = (
        array.tolist()
        for array in cluster.ClusterSimulation(config, seed=seed)._generate_request_arrays(
            num_requests
        )
    )
    servers, duration, completions, assignment, _ = run_events(
        arrivals, services, config.policy, config.num_servers, config.parallelism,
        seed + 2, schedule,
    )
    latencies = []
    counts: "dict[int, int]" = {}
    for index in range(int(num_requests * config.warmup_fraction), num_requests):
        if not math.isnan(completions[index]):
            latencies.append(completions[index] - arrivals[index])
            counts[assignment[index]] = counts.get(assignment[index], 0) + 1
    capacity = duration * config.parallelism
    utilization = sum(
        server.busy_time_s / capacity if capacity > 0 else 0.0 for server in servers
    ) / len(servers)
    assert result.duration_s == duration
    assert result.measured_requests == len(latencies)
    assert sorted(result.latency.samples) == sorted(latencies)
    assert result.per_server_counts == counts
    assert result.mean_utilization == pytest.approx(utilization)


@contextlib.contextmanager
def event_engine():
    """Run every cluster and fleet chunk of this process on the event oracle.

    Only the chunk simulation is swapped: a patched run still aggregates its
    chunks with the package's own code, so comparing it with a default run
    checks the plumbing around ``simulate_chunk``; :func:`assert_matches_event_run`
    checks a cluster result's aggregation against the oracle's own.  A fleet
    chunk bypasses ``chunk_completions`` and its ``jsq`` shortcut, so the
    oracle computes every chunk, and each patched fleet day asserts that it
    computed every non-empty chunk and every request.  Pool workers import
    the package afresh and never see the patch, so a catalog study compared
    under it must run on a serial executor.
    """
    chunk_sizes: "list[int]" = []

    def chunk_completions_events(arrivals, services, *shape):
        chunk_sizes.append(len(arrivals))
        completions, _ = simulate_chunk_events(arrivals.tolist(), services.tolist(), *shape)
        return np.array(completions)

    run_day = fleet_engine.FleetSimulation.run

    def run_checked_day(simulation):
        first = len(chunk_sizes)
        result = run_day(simulation)
        simulated = chunk_sizes[first:]
        assert len(simulated) == sum(1 for stats in result.epoch_stats if stats.requests)
        assert sum(simulated) == result.total_requests
        return result

    with mock.patch.object(cluster, "simulate_chunk", simulate_chunk_events), \
            mock.patch.object(fleet_engine, "chunk_completions", chunk_completions_events), \
            mock.patch.object(fleet_engine.FleetSimulation, "run", run_checked_day):
        yield


def assert_same_chunk(fast: tuple, event: tuple) -> None:
    """Hold a kernel's ``simulate_chunk`` return to the oracle's.

    Completions are compared bit for bit, ``nan`` positions included, and
    assignments exactly.  A fault tally must match field for field, except
    ``busy_time_s``: the kernel sums each station's busy time in drain order,
    the oracle in event order, so the two may differ in the last bits.
    """
    assert len(fast) == len(event)
    fast_completions = np.array(fast[0], dtype=np.float64)
    event_completions = np.array(event[0], dtype=np.float64)
    assert np.array_equal(fast_completions.view(np.uint64), event_completions.view(np.uint64))
    assert list(fast[1]) == list(event[1])
    if len(fast) == 3:
        fast_tally, event_tally = fast[2], event[2]
        assert fast_tally.duration_s == event_tally.duration_s
        assert fast_tally.unrouted == event_tally.unrouted
        assert len(fast_tally.stations) == len(event_tally.stations)
        for mine, theirs in zip(fast_tally.stations, event_tally.stations):
            assert mine.busy_time_s == pytest.approx(theirs.busy_time_s)
            exact = dict(vars(mine), busy_time_s=None)
            assert exact == dict(vars(theirs), busy_time_s=None)
