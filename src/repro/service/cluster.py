"""Cluster-level service simulation: arrivals -> balancer -> servers.

:class:`ClusterSimulation` wires an open-loop arrival process, a load-balancing
policy, and ``num_servers`` identical :class:`~repro.service.queueing.RequestServer`
stations onto one :class:`~repro.sim.engine.EventQueue` and runs a fixed number
of requests to completion.  Three independent seeded random streams keep the
simulation deterministic *and* comparable across configurations:

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
from repro.service.balancer import BALANCER_POLICIES, make_balancer
from repro.service.latency import LatencyCollector, LatencyStats
from repro.service.queueing import Request, RequestServer
from repro.service.servicetime import make_service_time
from repro.sim.engine import EventQueue

if TYPE_CHECKING:  # pragma: no cover - annotation-only (avoids an import cycle)
    from repro.faults.events import FaultSchedule
    from repro.faults.metrics import DependabilityStats

#: Policies whose routing decisions never read queue state; their simulations
#: decompose into independent per-server FCFS recurrences and run on the
#: vectorized fast engine.
STATE_FREE_POLICIES = ("random", "round_robin")

#: Every policy the fast engine reproduces bit-identically to the event
#: engine: the state-free pair plus the queue-state-aware ``jsq``/``po2``,
#: which :func:`balanced_completion_times` replays with an in-flight heap and
#: (for ``jsq``) a count histogram.  It covers every policy
#: :class:`ClusterConfig` accepts.
FAST_POLICIES = ("random", "round_robin", "jsq", "po2")

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

    * the **event engine** drives :class:`RequestServer` stations on a shared
      :class:`EventQueue`; it is the reference, and the fault injector
      builds on it;
    * the **fast engine** replays routing without event objects or callbacks:
      state-free policies (``random``/``round_robin``) fix the routing up
      front and reduce each server to an isolated FCFS G/G/k recurrence
      (:func:`fcfs_completion_times`); the queue-state-aware ``jsq``/``po2``
      run :func:`balanced_completion_times`, which tracks in-system counts
      exactly as the event engine's backlogs evolve (``jsq`` picks its
      server from a count histogram and one ``list.index`` scan).

    ``engine="auto"`` (default) picks the fast engine for every policy in
    :data:`FAST_POLICIES` (every policy a config accepts); ``engine="event"``
    is the reference escape hatch.

    A non-empty ``faults`` schedule routes the run through the fault-injected
    event engine (:mod:`repro.faults.inject`); crashes and stragglers need
    live queue state, so ``engine="fast"`` rejects faults.  An empty (or
    ``None``) schedule takes exactly the un-faulted code path -- zero-fault
    results are byte-identical to runs that never heard of faults.
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
        self.config = config
        self.seed = seed
        self.engine = engine
        self.faults = faults

    def resolved_engine(self) -> str:
        """The engine ("fast" or "event") this simulation will run on."""
        if self.faults is not None:
            return "event"
        if self.engine == "auto":
            return "fast" if self.config.policy in FAST_POLICIES else "event"
        return self.engine

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

    def _generate_requests(self, count: int) -> "list[Request]":
        """The request list for the event engine (object view of the arrays)."""
        arrivals, services = self._generate_request_arrays(count)
        return [
            Request(index=index, arrival_s=arrival, service_s=service)
            for index, (arrival, service) in enumerate(
                zip(arrivals.tolist(), services.tolist())
            )
        ]

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
            return self._run_event(num_requests)

    # ------------------------------------------------------------ event engine
    def _run_event(self, num_requests: int) -> ClusterResult:
        config = self.config
        engine = EventQueue()
        warmup = int(num_requests * config.warmup_fraction)
        collector = LatencyCollector(warmup_requests=warmup)
        servers = [
            RequestServer(i, config.parallelism, engine, collector)
            for i in range(config.num_servers)
        ]
        balancer = make_balancer(config.policy)
        routing_rng = random.Random(self.seed + 2)

        for request in self._generate_requests(num_requests):
            engine.schedule_at(
                request.arrival_s,
                # Bind loop variable; selection happens at arrival time so
                # state-aware policies see live backlogs.
                lambda request=request: servers[
                    balancer.select(servers, routing_rng)
                ].offer(request),
            )
        engine.run()
        from repro.obs.tracer import get_tracer

        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("service.events").add(engine.processed)

        duration = engine.now
        utilizations = [server.utilization(duration) for server in servers]
        return ClusterResult(
            config=config,
            latency=collector.stats(),
            measured_requests=collector.measured,
            total_requests=num_requests,
            duration_s=duration,
            mean_utilization=sum(utilizations) / len(utilizations),
            per_server_counts=collector.per_server_counts(),
        )

    # ------------------------------------------------------------- fast engine
    def _routing_sequence(self, count: int) -> "list[int]":
        """Per-request server choices, identical to the event engine's stream.

        The event engine draws routing decisions in arrival (index) order, so
        replaying the same seeded stream up front yields the same assignment.
        """
        num_servers = self.config.num_servers
        if self.config.policy == "round_robin":
            return [index % num_servers for index in range(count)]
        if self.config.policy == "random":
            routing_rng = random.Random(self.seed + 2)
            return [routing_rng.randrange(num_servers) for _ in range(count)]
        raise ValueError(  # pragma: no cover - guarded by resolved_engine
            f"no fast-engine routing replay for policy {self.config.policy!r}"
        )

    def _run_fast(self, num_requests: int) -> ClusterResult:
        config = self.config
        arrivals, services = self._generate_request_arrays(num_requests)
        parallelism = config.parallelism

        arrival_list = arrivals.tolist()
        service_list = services.tolist()
        if config.policy in STATE_FREE_POLICIES:
            assignment = self._routing_sequence(num_requests)
            completions = fcfs_completion_times(
                arrival_list, service_list, assignment,
                config.num_servers, parallelism,
            )
        else:
            completions, assignment = balanced_completion_times(
                arrival_list, service_list, config.policy,
                config.num_servers, parallelism, random.Random(self.seed + 2),
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
