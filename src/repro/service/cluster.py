"""Cluster-level service simulation: arrivals -> balancer -> servers.

:class:`ClusterSimulation` offers an open-loop arrival stream to
``num_servers`` identical G/G/k stations behind one load-balancing policy and
runs a fixed number of requests to completion, on the event path
(:func:`~repro.service.queueing.run_events`) or the bitwise-equal fast path
(:func:`simulate_chunk`); the fleet layer runs its chunks through the same
two entries.  Three independent seeded random streams keep the simulation
deterministic *and* comparable across configurations:

* the **arrival** stream draws interarrival gaps -- with Poisson arrivals one
  uniform per request, so two runs with equal seeds and different rates see
  proportional arrival times;
* the **service** stream attaches per-request service times at generation time,
  identical across runs regardless of load or policy;
* the **routing** stream feeds the balancer's random choices.

Because higher offered load only compresses the same arrival pattern over the
same per-request work, waiting times are monotone in load for state-free
policies -- the load-latency sweeps inherit that cleanliness.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.service.arrivals import make_arrivals
from repro.service.balancer import BALANCER_POLICIES
from repro.service.latency import LatencyCollector, LatencyStats
from repro.service.queueing import RequestServer, run_events
from repro.service.servicetime import make_service_time

if TYPE_CHECKING:  # pragma: no cover - annotation-only (avoids an import cycle)
    from repro.faults.events import FaultSchedule
    from repro.faults.metrics import DependabilityStats

_ENGINES = ("auto", "fast", "event")


def fcfs_completion_times(
    arrivals: "list[float]",
    services: "list[float]",
    assignment: "list[int]",
    num_servers: int,
    parallelism: int,
) -> "list[float]":
    """Completion times for a fixed routing: independent FCFS G/G/k stations.

    With the per-request server choice already known (state-free policies, or
    a replayed balancer decision), each server reduces to the classic
    earliest-free-unit recurrence over a k-slot heap of unit-free times:
    ``start = max(arrival, earliest free)``, ``completion = start + service``.
    The float expressions mirror the event engine exactly, so the returned
    times are bitwise equal to an :class:`~repro.sim.engine.EventQueue` run.
    The fleet layer reuses this kernel for its per-epoch datacenter chunks.
    """
    unit_free = [[0.0] * parallelism for _ in range(num_servers)]
    completions = [0.0] * len(arrivals)
    heapreplace = heapq.heapreplace
    for index in range(len(arrivals)):
        heap = unit_free[assignment[index]]
        free = heap[0]
        arrival = arrivals[index]
        start = arrival if arrival >= free else free
        completion = start + services[index]
        heapreplace(heap, completion)
        completions[index] = completion
    return completions


def balanced_completion_times(
    arrivals: "list[float]",
    services: "list[float]",
    policy: str,
    num_servers: int,
    parallelism: int,
    routing_rng: "random.Random",
) -> "tuple[list[float], list[int]]":
    """Completion times and routing for the queue-state-aware policies.

    ``jsq`` and ``po2`` route on live backlogs, so the FCFS recurrence alone
    is not enough: the kernel additionally tracks each server's in-system
    count (queued plus in service) at every arrival instant.

    * A global ``(completion, server)`` heap drains finished requests -- with
      the *strict* ``< t`` comparison, because the event engine schedules all
      arrivals before any completion and its tie-break is insertion order, so
      an arrival at exactly a completion's timestamp still sees that request
      in the system.
    * For ``jsq``, a count histogram keeps ``low == min(counts)`` at every
      arrival: ``at[c]`` is how many servers hold count ``c`` (the list grows
      by one slot when a count first reaches a new high).  A departure from
      a server that held ``c`` lowers ``low`` to at most ``c - 1``; an
      arrival at a ``low`` server raises ``low`` by one once ``at[low]`` hits
      zero.  ``counts.index(low)`` then scans at C speed and stops at the
      first minimum-count server -- exactly
      :class:`~repro.service.balancer.JoinShortestQueue`'s lowest-id
      tie-break, with no branch on the cluster width.

    ``po2`` replays :class:`~repro.service.balancer.PowerOfTwoChoices`'s draw
    sequence from ``routing_rng`` verbatim (first uniform over ``n``, second
    over ``n - 1`` with the shift), so the routing stream is bit-identical to
    the event engine's.

    Returns:
        ``(completions, assignment)`` lists, bitwise equal to an event run.
    """
    if policy not in ("jsq", "po2"):
        raise ValueError(f"no balanced-kernel replay for policy {policy!r}")
    heappush = heapq.heappush
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    randrange = routing_rng.randrange
    jsq = policy == "jsq"

    unit_free = [[0.0] * parallelism for _ in range(num_servers)]
    counts = [0] * num_servers
    at = [num_servers]
    low = 0
    in_system: "list[tuple[float, int]]" = []
    completions = [0.0] * len(arrivals)
    assignment = [0] * len(arrivals)
    for index in range(len(arrivals)):
        arrival = arrivals[index]
        while in_system and in_system[0][0] < arrival:
            server = heappop(in_system)[1]
            count = counts[server] - 1
            counts[server] = count
            if jsq:
                at[count + 1] -= 1
                at[count] += 1
                if count < low:
                    low = count
        if jsq:
            server = counts.index(low)
            count = low + 1
            counts[server] = count
            at[low] -= 1
            if count < len(at):
                at[count] += 1
            else:
                at.append(1)
            if not at[low]:
                low = count
        else:
            server = 0
            if num_servers > 1:
                first = randrange(num_servers)
                second = randrange(num_servers - 1)
                if second >= first:
                    second += 1
                server = second if counts[second] < counts[first] else first
            counts[server] += 1
        heap = unit_free[server]
        free = heap[0]
        start = arrival if arrival >= free else free
        completion = start + services[index]
        heapreplace(heap, completion)
        completions[index] = completion
        assignment[index] = server
        heappush(in_system, (completion, server))
    return completions, assignment


def simulate_chunk(
    arrivals: "list[float]",
    services: "list[float]",
    policy: str,
    num_servers: int,
    parallelism: int,
    rseed: int,
) -> "tuple[list[float], list[int]]":
    """Completion times and routing of one request stream on the fast path.

    The routing replays the event path's balancer draw for draw:
    ``round_robin`` routes request ``i`` to server ``i % num_servers`` and
    ``random`` draws one ``randrange`` per request from
    ``random.Random(rseed)``; both then run :func:`fcfs_completion_times`.
    ``jsq`` and ``po2`` read live backlogs and run
    :func:`balanced_completion_times` on the same seeded stream.

    Returns:
        ``(completions, assignment)`` lists, bitwise equal to
        :func:`~repro.service.queueing.run_events` on the same inputs.
    """
    if policy == "round_robin":
        assignment = [index % num_servers for index in range(len(arrivals))]
    elif policy == "random":
        randrange = random.Random(rseed).randrange
        assignment = [randrange(num_servers) for _ in arrivals]
    else:
        return balanced_completion_times(
            arrivals, services, policy, num_servers, parallelism, random.Random(rseed)
        )
    completions = fcfs_completion_times(
        arrivals, services, assignment, num_servers, parallelism
    )
    return completions, assignment


@dataclass(frozen=True)
class ClusterConfig:
    """Configuration of one service-cluster simulation.

    Attributes:
        num_servers: identical servers behind the load balancer.
        parallelism: service units per server (usable cores, from calibration).
        service_mean_s: mean per-request service time of one unit.
        offered_qps: open-loop arrival rate across the whole cluster.
        policy: load-balancing policy name (see ``BALANCER_POLICIES``).
        arrival: arrival process name (``"poisson"`` or ``"mmpp"``).
        service_distribution: service-time shape (``"exponential"``, ...).
        arrival_kwargs: extra arrival-process parameters (e.g. burstiness).
        service_kwargs: extra service-distribution parameters (e.g. cv).
        warmup_fraction: leading fraction of requests excluded from stats.
    """

    num_servers: int
    parallelism: int
    service_mean_s: float
    offered_qps: float
    policy: str = "jsq"
    arrival: str = "poisson"
    service_distribution: str = "exponential"
    arrival_kwargs: "dict[str, float]" = field(default_factory=dict)
    service_kwargs: "dict[str, float]" = field(default_factory=dict)
    warmup_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.num_servers < 1:
            raise ValueError("num_servers must be >= 1")
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.service_mean_s <= 0:
            raise ValueError("service_mean_s must be positive")
        if self.offered_qps <= 0:
            raise ValueError("offered_qps must be positive")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if self.policy not in BALANCER_POLICIES:
            raise ValueError(
                f"policy must be one of {sorted(BALANCER_POLICIES)}, got {self.policy!r}"
            )

    @property
    def capacity_qps(self) -> float:
        """Saturation throughput: every unit busy all the time."""
        return self.num_servers * self.parallelism / self.service_mean_s

    @property
    def utilization(self) -> float:
        """Offered load as a fraction of saturation throughput."""
        return self.offered_qps / self.capacity_qps


@dataclass(frozen=True)
class ClusterResult:
    """Outcome of one cluster simulation.

    ``dependability`` is filled only by fault-injected runs (see
    :mod:`repro.faults.inject`); un-faulted runs leave it ``None``, keeping
    their results byte-identical to pre-fault-subsystem ones.
    """

    config: ClusterConfig
    latency: LatencyStats
    measured_requests: int
    total_requests: int
    duration_s: float
    mean_utilization: float
    per_server_counts: "dict[int, int]"
    dependability: "DependabilityStats | None" = None

    @property
    def achieved_qps(self) -> float:
        """Completed-request throughput over the simulated interval."""
        if self.duration_s <= 0:
            return 0.0
        return self.total_requests / self.duration_s


class ClusterSimulation:
    """Simulation of a load-balanced service cluster.

    Two engines produce the same per-request latencies:

    * the **event engine** (:func:`~repro.service.queueing.run_events`)
      drives :class:`~repro.service.queueing.RequestServer` stations on an
      :class:`~repro.sim.engine.EventQueue`; it is the reference, and the
      only engine that takes a fault schedule;
    * the **fast engine** (:func:`simulate_chunk`) replays routing without
      event objects or callbacks: ``random``/``round_robin`` fix the routing
      up front and reduce each server to an isolated FCFS G/G/k recurrence
      (:func:`fcfs_completion_times`); the queue-state-aware ``jsq``/``po2``
      run :func:`balanced_completion_times`, which tracks in-system counts
      exactly as the event engine's backlogs evolve.

    ``engine="auto"`` (default) and ``engine="fast"`` run the fast engine,
    which covers every policy a config accepts; ``engine="event"`` is the
    reference escape hatch.

    A non-empty ``faults`` schedule runs on the event engine, with the
    dependability accounting of :func:`repro.faults.inject.run_faulted`
    (so ``engine="fast"`` rejects it, as does a schedule naming a server
    the cluster lacks).  An empty (or ``None``) schedule is the un-faulted
    run, byte-identical to one that never heard of faults.
    """

    def __init__(
        self,
        config: ClusterConfig,
        seed: int = 1,
        engine: str = "auto",
        faults: "FaultSchedule | None" = None,
    ):
        if engine not in _ENGINES:
            raise ValueError(f"engine must be one of {_ENGINES}, got {engine!r}")
        if faults is not None and faults.is_empty():
            faults = None
        if faults is not None and engine == "fast":
            raise ValueError(
                "fault injection needs live queue state; use engine='auto' or 'event'"
            )
        if faults is not None and any(
            event.server >= config.num_servers
            for event in (*faults.crashes, *faults.stragglers)
        ):
            raise ValueError(f"faults name a server outside 0..{config.num_servers - 1}")
        self.config = config
        self.seed = seed
        self.engine = engine
        self.faults = faults

    def resolved_engine(self) -> str:
        """The engine ("fast" or "event") this simulation will run on."""
        if self.faults is not None or self.engine == "event":
            return "event"
        return "fast"

    def _generate_request_arrays(self, count: int) -> "tuple[np.ndarray, np.ndarray]":
        """(arrival times, service times) -- the shared deterministic streams.

        Both engines consume these identical arrays, so results are engine-
        independent; arrivals and service times come from separate seeded
        streams, preserving the common-random-numbers structure.
        """
        arrival_rng = random.Random(self.seed)
        service_rng = random.Random(self.seed + 1)
        process = make_arrivals(
            self.config.arrival, self.config.offered_qps, **self.config.arrival_kwargs
        )
        distribution = make_service_time(
            self.config.service_distribution,
            self.config.service_mean_s,
            **self.config.service_kwargs,
        )
        arrivals = process.sample_times(arrival_rng, count)
        services = distribution.sample_batch(service_rng, count)
        return arrivals, services

    def run(self, num_requests: int = 5_000) -> ClusterResult:
        """Simulate ``num_requests`` requests to completion."""
        from repro.obs.tracer import get_tracer

        if num_requests < 1:
            raise ValueError("num_requests must be >= 1")
        engine = self.resolved_engine()
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter(f"service.engine.{engine}").add()
            tracer.counter("service.requests").add(num_requests)
        with tracer.span(
            "service.cluster",
            category="service",
            policy=self.config.policy,
            engine=engine,
            requests=num_requests,
            servers=self.config.num_servers,
        ):
            if self.faults is not None:
                from repro.faults.inject import run_faulted

                return run_faulted(self, num_requests, self.faults)
            if engine == "fast":
                return self._run_fast(num_requests)
            return self._run_event(num_requests)[0]

    def _run_event(
        self, num_requests: int, schedule: "FaultSchedule | None" = None
    ) -> "tuple[ClusterResult, list[RequestServer], int]":
        """The event engine: ``(result, stations, unrouted requests)``."""
        config = self.config
        arrivals, services = self._generate_request_arrays(num_requests)
        warmup = int(num_requests * config.warmup_fraction)
        collector = LatencyCollector(warmup_requests=warmup)
        servers, duration, unrouted = run_events(
            arrivals.tolist(), services.tolist(), config.policy, config.num_servers,
            config.parallelism, self.seed + 2, collector, schedule,
        )
        utilizations = [server.utilization(duration) for server in servers]
        return ClusterResult(
            config=config,
            latency=collector.stats(),
            measured_requests=collector.measured,
            total_requests=num_requests,
            duration_s=duration,
            mean_utilization=sum(utilizations) / len(utilizations),
            per_server_counts=collector.per_server_counts(),
        ), servers, unrouted

    def _run_fast(self, num_requests: int) -> ClusterResult:
        config = self.config
        arrivals, services = self._generate_request_arrays(num_requests)
        parallelism = config.parallelism
        completions, assignment = simulate_chunk(
            arrivals.tolist(), services.tolist(), config.policy,
            config.num_servers, parallelism, self.seed + 2,
        )

        completion_arr = np.array(completions, dtype=np.float64)
        latencies = completion_arr - arrivals
        warmup = int(num_requests * config.warmup_fraction)
        assignment_arr = np.array(assignment, dtype=np.int64)

        measured_latencies = latencies[warmup:]
        # Sample order differs from the event engine's completion order, but
        # every statistic downstream sorts or sums symmetrically.
        collector = LatencyCollector(warmup_requests=warmup)
        counts = np.bincount(assignment_arr[warmup:], minlength=config.num_servers)
        collector.record_batch(
            measured_latencies,
            {
                server: int(count)
                for server, count in enumerate(counts.tolist())
                if count > 0
            },
        )

        duration = float(completion_arr.max())
        busy = np.bincount(
            assignment_arr, weights=services, minlength=config.num_servers
        )
        utilizations = busy / (duration * parallelism) if duration > 0 else busy * 0.0
        return ClusterResult(
            config=config,
            latency=collector.stats(),
            measured_requests=collector.measured,
            total_requests=num_requests,
            duration_s=duration,
            mean_utilization=float(utilizations.mean()),
            per_server_counts=collector.per_server_counts(),
        )


def simulate_cluster(
    config: ClusterConfig,
    num_requests: int = 5_000,
    seed: int = 1,
    engine: str = "auto",
    faults: "FaultSchedule | None" = None,
) -> ClusterResult:
    """Convenience wrapper: build and run one cluster simulation."""
    return ClusterSimulation(config, seed=seed, engine=engine, faults=faults).run(
        num_requests
    )
