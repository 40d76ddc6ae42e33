"""Cluster-level service simulation: arrivals -> balancer -> servers.

:class:`ClusterSimulation` offers an open-loop arrival stream to
``num_servers`` identical G/G/k stations behind one load-balancing policy and
runs a fixed number of requests to completion through :func:`simulate_chunk`;
the fleet layer runs its chunks through :func:`chunk_completions`, which
returns the same completions and skips the ``jsq`` kernel where no request
can wait.  Three independent seeded random streams keep the simulation
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

The kernels replay a discrete-event model of the stations: arrivals, crashes
and restarts are events ordered by time with ties broken in the order they
were scheduled (every fault, then every arrival, then completions).  The
test oracle ``tests/oracles/service_events.py`` runs that model on an event
queue, and the equivalence suites hold the kernels to it bit for bit.
"""

from __future__ import annotations

import heapq
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.perfmodel.analytic import require_positive_finite
from repro.service.arrivals import make_arrivals
from repro.service.draws import randrange_batch
from repro.service.latency import LatencyStats
from repro.service.servicetime import make_service_time

if TYPE_CHECKING:  # pragma: no cover - annotation-only (avoids an import cycle)
    from repro.faults.events import FaultSchedule
    from repro.faults.metrics import DependabilityStats

#: Load-balancing policies: uniform random, rotation, join-shortest-queue
#: (lowest id on ties) and power-of-two-choices.
BALANCER_POLICIES = ("random", "round_robin", "jsq", "po2")


@dataclass(frozen=True)
class StationTally:
    """One station's totals after a faulted run.

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


def check_request_stream(
    arrivals: "list[float] | np.ndarray", services: "list[float] | np.ndarray"
) -> None:
    """Reject a request stream the kernels cannot replay.

    Request ``i`` arrives at ``arrivals[i]`` in index order, and the balanced
    kernel finds each completion's drain point by bisecting ``arrivals``.  So
    arrivals must be finite, non-negative and non-decreasing, and services
    finite and non-negative, one per arrival.  Float64 arrays are checked in
    place, lists are converted.

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
    The float expressions mirror the event model exactly, so the returned
    times are bitwise equal to an event-by-event run.  The fleet layer reuses
    this kernel for its per-epoch datacenter chunks.
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


#: Requests per block of the balanced kernel: it lists drain slots and keeps
#: drain chains one block at a time, so its side tables stay this size.
_SLOT_BLOCK = 4096


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

    * **Drain by arrival slot.** The event model schedules all arrivals
      before any completion and breaks time ties by insertion order, so an
      arrival at exactly a completion's timestamp still sees that request in
      the system: a completion ``c`` of request ``i`` drains just before
      arrival ``bisect_right(arrivals, c, i + 1)``, its *slot*.  Each routed
      request is chained onto its slot, and its server's count falls when
      the loop reaches that slot.  The departures drained before one arrival
      commute -- the counts and ``low`` they leave do not depend on their
      order -- so no completion heap is needed.  A request that finds a free
      unit completes at ``arrival + service``; those completions and their
      slots (``np.searchsorted(..., side="right")``) are computed up front,
      and a queued request overwrites its entry and bisects for its slot.
    * **Bounded side tables.** Slots are listed one block of
      ``_SLOT_BLOCK`` requests at a time.  A chain is one int: the ids of
      the servers draining at a slot, ``shift`` bits each, under a leading 1
      (ints, unlike tuples, cost the garbage collector nothing).  Chains
      draining in the current block sit in a block-sized list; later ones
      wait in per-block buckets.  Memory follows the block size and the
      in-system count, not the stream length.
    * **Bitmask levels for** ``jsq``. ``level[c]`` has bit ``s`` set when
      server ``s`` holds count ``c``, and ``low == min(counts)`` at every
      arrival: a departure from count ``c`` lowers ``low`` to at most
      ``c - 1``, and an arrival at the last ``low`` server raises it by one.
      The lowest set bit of ``level[low]`` is the lowest-id shortest queue --
      ``jsq``'s tie-break -- and every move between counts is two bit
      operations.

    ``po2`` probes two distinct servers and joins the one with the smaller
    count, the first on a tie: one uniform draw from ``routing_rng`` over
    ``n``, then one over ``n - 1`` shifted past the first.  The kernel
    rejects a stream that fails :func:`check_request_stream`, checked on the
    arrays it builds anyway.

    Returns:
        ``(completions, assignment)`` lists, bitwise equal to an event run.
    """
    if policy not in ("jsq", "po2"):
        raise ValueError(f"no balanced-kernel replay for policy {policy!r}")
    count = len(arrivals)
    times = np.fromiter(arrivals, np.float64, count)
    work = np.fromiter(services, np.float64, len(services))
    check_request_stream(times, work)
    heapreplace = heapq.heapreplace
    randrange = routing_rng.randrange
    jsq = policy == "jsq"
    block_size = _SLOT_BLOCK
    shift = max(1, (num_servers - 1).bit_length())
    mask = (1 << shift) - 1

    # Each request's completion if it finds a free unit (reusing ``work``).
    unqueued = np.add(times, work, out=work)
    completions = unqueued.tolist()
    assignment = [0] * count
    unit_free = [[0.0] * parallelism for _ in range(num_servers)]
    counts = [0] * num_servers
    bits = [1 << server for server in range(num_servers)]
    level = [(1 << num_servers) - 1]
    low = 0
    # Block number -> (slot, server) pairs draining in that (later) block.
    later: "dict[int, list[tuple[int, int]]]" = {}
    for first in range(0, count, block_size):
        last = min(first + block_size, count)
        offsets = np.searchsorted(times, unqueued[first:last], side="right") - first
        # chains[k]: the servers whose requests drain before arrival first + k.
        chains = [1] * block_size
        for slot, server in later.pop(first // block_size, ()):
            chains[slot - first] = chains[slot - first] << shift | server
        index = first
        for arrival, offset, chain in zip(arrivals[first:last], offsets.tolist(), chains):
            while chain > 1:
                server = chain & mask
                chain >>= shift
                held = counts[server]
                counts[server] = held - 1
                if jsq:
                    bit = bits[server]
                    level[held] ^= bit
                    level[held - 1] |= bit
                    if held <= low:
                        low = held - 1
            if jsq:
                lowest = level[low]
                bit = lowest & -lowest
                server = bit.bit_length() - 1
                level[low] = lowest ^ bit
                held = low + 1
                counts[server] = held
                try:
                    level[held] |= bit
                except IndexError:
                    level.append(bit)
                if lowest == bit:
                    low = held
            else:
                server = 0
                if num_servers > 1:
                    pick = randrange(num_servers)
                    other = randrange(num_servers - 1)
                    if other >= pick:
                        other += 1
                    server = other if counts[other] < counts[pick] else pick
                counts[server] += 1
            heap = unit_free[server]
            free = heap[0]
            if arrival >= free:
                heapreplace(heap, completions[index])
            else:
                completion = free + services[index]
                heapreplace(heap, completion)
                completions[index] = completion
                offset = bisect_right(arrivals, completion, index + 1) - first
            assignment[index] = server
            index += 1
            if offset < block_size:
                chains[offset] = chains[offset] << shift | server
            else:
                slot = first + offset
                later.setdefault(slot // block_size, []).append((slot, server))
    return completions, assignment


def faulted_completion_times(
    arrivals: "list[float]",
    services: "list[float]",
    policy: str,
    num_servers: int,
    parallelism: int,
    routing_rng: "random.Random",
    schedule: "FaultSchedule",
) -> "tuple[list[float], list[int], FaultTally]":
    """Completion times, routing and fault tally of one faulted request stream.

    The un-faulted kernels' recurrences, with the event model's fault rules
    replayed between arrivals:

    * **Order.** Crashes and restarts fire in ``(time, schedule order)``
      before any arrival at the same time, and arrivals before completions,
      so only completions strictly before a crash or arrival drain ahead of
      it.
    * **Crash at** ``c``. Every request still on the server is lost (its
      in-system count).  One that started before ``c`` was in service: its
      stale completion still ends the run no earlier than its completion
      time.  One that would start at or after ``c`` was queued and never
      fires.  The server's unit heap and in-system entries reset.  A server
      stays down until every crash window that opened on it has closed.
    * **Routing** over the up servers in id order: ``jsq`` takes the
      lowest-id minimum count, ``po2`` and ``random`` draw over the up list
      (``po2`` makes no draw for one up server), ``round_robin`` steps only
      on routed requests.  With no server up the request is unrouted.
    * **Stragglers.** A request's service is multiplied by the largest
      slowdown among its server's windows open at its start.
    * **Recovery.** A server's pending crashes resolve at its first
      completion after them, in crash order.

    Tracer counters: ``faults.server_crash``, ``faults.server_restart``,
    ``faults.requests_lost`` and ``faults.requests_unrouted``.

    Returns:
        ``(completions, assignment, tally)``: ``nan`` completes a lost or
        unrouted request, ``-1`` routes an unrouted one, and ``tally`` is the
        :class:`FaultTally` of the run.
    """
    from repro.obs.tracer import get_tracer

    if policy not in BALANCER_POLICIES:
        raise ValueError(f"no faulted-kernel replay for policy {policy!r}")
    tracer = get_tracer()
    heappush = heapq.heappush
    heappop = heapq.heappop
    heapreplace = heapq.heapreplace
    randrange = routing_rng.randrange
    jsq = policy == "jsq"
    po2 = policy == "po2"
    round_robin = policy == "round_robin"

    faults: "list[tuple[float, int, int]]" = []
    for order, crash in enumerate(schedule.crashes):
        faults.append((crash.at_s, 2 * order, crash.server))
        faults.append((crash.restart_s, 2 * order + 1, crash.server))
    faults.sort()
    windows: "list[list[tuple[float, float, float]]]" = [[] for _ in range(num_servers)]
    for window in schedule.stragglers:
        windows[window.server].append((window.at_s, window.until_s, window.slowdown))

    count = len(arrivals)
    unit_free = [[0.0] * parallelism for _ in range(num_servers)]
    # A down server's count never wins jsq's minimum.
    down_count = count + 1
    counts = [0] * num_servers
    open_crashes = [0] * num_servers
    up = list(range(num_servers))
    in_system: "list[tuple[float, int]]" = []
    completions = [math.nan] * count
    assignment = [-1] * count
    starts = [0.0] * count
    scaled = list(services)
    completed = [0] * num_servers
    busy = [0.0] * num_servers
    lost = [0] * num_servers
    pending: "list[list[float]]" = [[] for _ in range(num_servers)]
    recovered: "list[list[float]]" = [[] for _ in range(num_servers)]
    # Latest stale completion of a request lost while in service.
    stale_end = 0.0

    def fire(at_s: float, order: int, server: int) -> None:
        """One crash (even ``order``) or restart, after the drain before ``at_s``."""
        nonlocal stale_end
        if order % 2:
            open_crashes[server] -= 1
            if not open_crashes[server]:
                counts[server] = 0
                up[:] = [s for s in range(num_servers) if not open_crashes[s]]
            if tracer.enabled:
                tracer.counter("faults.server_restart").add()
            return
        open_crashes[server] += 1
        pending[server].append(at_s)
        dropped = 0
        if open_crashes[server] == 1:
            kept = []
            for entry in in_system:
                index = entry[1]
                if assignment[index] != server:
                    kept.append(entry)
                    continue
                dropped += 1
                completions[index] = math.nan
                if starts[index] < at_s and entry[0] > stale_end:
                    stale_end = entry[0]
            in_system[:] = kept
            heapq.heapify(in_system)
            unit_free[server] = [0.0] * parallelism
            counts[server] = down_count
            up[:] = [s for s in range(num_servers) if not open_crashes[s]]
        lost[server] += dropped
        if tracer.enabled:
            tracer.counter("faults.server_crash").add()
            tracer.counter("faults.requests_lost").add(dropped)

    next_fault = 0
    fault_at = faults[0][0] if faults else math.inf
    # Completions drain in time order, so the last one drained is the latest.
    last = 0.0
    routed = 0
    unrouted = 0
    # One pass past the last arrival (at infinity) fires the remaining faults
    # and drains every request still in the system.
    for index in range(count + 1):
        arrival = arrivals[index] if index < count else math.inf
        while True:
            bound = fault_at if fault_at <= arrival else arrival
            while in_system and in_system[0][0] < bound:
                last, done = heappop(in_system)
                server = assignment[done]
                counts[server] -= 1
                completed[server] += 1
                busy[server] += scaled[done]
                if pending[server]:
                    recovered[server].extend(last - at_s for at_s in pending[server])
                    pending[server].clear()
            if fault_at > arrival or next_fault == len(faults):
                break
            fire(*faults[next_fault])
            next_fault += 1
            fault_at = faults[next_fault][0] if next_fault < len(faults) else math.inf
        if index == count:
            break
        if not up:
            unrouted += 1
            continue
        if jsq:
            server = counts.index(min(counts))
        elif po2:
            server = up[0]
            if len(up) > 1:
                first = randrange(len(up))
                second = randrange(len(up) - 1)
                if second >= first:
                    second += 1
                first, second = up[first], up[second]
                server = second if counts[second] < counts[first] else first
        elif round_robin:
            server = up[routed % len(up)]
        else:
            server = up[randrange(len(up))]
        routed += 1
        counts[server] += 1
        heap = unit_free[server]
        free = heap[0]
        start = arrival if arrival >= free else free
        service = services[index]
        if windows[server]:
            factor = 1.0
            for at_s, until_s, slowdown in windows[server]:
                if at_s <= start < until_s and slowdown > factor:
                    factor = slowdown
            service = scaled[index] = service * factor
        completion = start + service
        heapreplace(heap, completion)
        completions[index] = completion
        assignment[index] = server
        starts[index] = start
        heappush(in_system, (completion, index))

    if unrouted and tracer.enabled:
        tracer.counter("faults.requests_unrouted").add(unrouted)
    # Every event fires: arrivals, crashes, restarts, real and stale completions.
    duration = max(
        arrivals[-1] if count else 0.0, faults[-1][0] if faults else 0.0, last, stale_end
    )
    stations = tuple(
        StationTally(
            completed=completed[server],
            lost=lost[server],
            busy_time_s=busy[server],
            recovery_times_s=tuple(recovered[server]),
            unresolved_crashes_s=tuple(pending[server]),
        )
        for server in range(num_servers)
    )
    return completions, assignment, FaultTally(stations, duration, unrouted)


def simulate_chunk(
    arrivals: "list[float]",
    services: "list[float]",
    policy: str,
    num_servers: int,
    parallelism: int,
    rseed: int,
    schedule: "FaultSchedule | None" = None,
) -> "tuple":
    """Completion times and routing of one request stream.

    ``round_robin`` routes request ``i`` to server ``i % num_servers`` and
    ``random`` takes one ``randrange`` per request from
    ``random.Random(rseed)``, drawn in bulk by
    :func:`~repro.service.draws.randrange_batch`; both then run
    :func:`fcfs_completion_times`.
    ``jsq`` and ``po2`` read live backlogs and run
    :func:`balanced_completion_times` on the same seeded stream.  A
    ``schedule`` runs :func:`faulted_completion_times` instead, for every
    policy, so the un-faulted kernels carry no fault work.  A stream that
    fails :func:`check_request_stream` is rejected.

    Returns:
        ``(completions, assignment)`` lists; with a ``schedule``,
        ``(completions, assignment, tally)`` as
        :func:`faulted_completion_times` returns them.
    """
    if schedule is None and policy not in ("random", "round_robin"):
        # The balanced kernel checks the stream on the arrays it builds.
        return balanced_completion_times(
            arrivals, services, policy, num_servers, parallelism, random.Random(rseed)
        )
    check_request_stream(arrivals, services)
    if schedule is not None:
        return faulted_completion_times(
            arrivals, services, policy, num_servers, parallelism,
            random.Random(rseed), schedule,
        )
    if policy == "round_robin":
        assignment = [index % num_servers for index in range(len(arrivals))]
    else:
        assignment = randrange_batch(random.Random(rseed), num_servers, len(arrivals))
    completions = fcfs_completion_times(
        arrivals, services, assignment, num_servers, parallelism
    )
    return completions, assignment


def chunk_completions(
    arrivals: np.ndarray,
    services: np.ndarray,
    policy: str,
    num_servers: int,
    parallelism: int,
    rseed: int,
) -> np.ndarray:
    """Completion times of one un-faulted fleet chunk, without its routing.

    Equal, bit for bit, to ``simulate_chunk(...)[0]`` on the float64 arrays.
    A ``jsq`` chunk that can never fill every unit skips the kernel:

    * **Where JSQ waits.** A request waits only when all ``k`` units of its
      server are busy past its arrival.  Each busy unit's last request is
      still in system, so that server holds at least ``k`` requests; JSQ
      picks a server holding ``min(counts)``, so every server does, and the
      cluster holds at least ``n * k``.  So if every earlier request started
      on arrival and the arrival sees fewer than ``n * k`` requests in
      system, it starts on arrival too; by induction no request waits, and
      every completion is ``arrival + service``, the float add the kernel
      makes for an unqueued request.
    * **The in-system count.** With every request served on arrival,
      request ``i`` has left by arrival ``j`` exactly when
      ``arrival[i] + service[i] < arrival[j]`` -- the kernel's
      ``bisect_right`` tie rule: a completion exactly at an arrival is
      still in system -- and only earlier requests can have left.  So
      arrival ``j`` sees fewer than ``n * k`` requests exactly when at least
      ``j + 1 - n * k`` completions fall before it, that is when
      ``sorted(completions)[j - n * k]`` does: one sort and one comparison
      check every arrival at once.

    ``po2`` can pick a full server below ``n * k``, and ``random`` and
    ``round_robin`` fix the routing up front, so they always run the kernel.
    A stream that fails :func:`check_request_stream` is rejected.
    """
    if policy == "jsq":
        # simulate_chunk checks the stream itself; the shortcut must too.
        check_request_stream(arrivals, services)
        done = arrivals + services
        later = arrivals[num_servers * parallelism:]
        if (np.sort(done)[: later.size] < later).all():
            from repro.obs.tracer import get_tracer

            tracer = get_tracer()
            if tracer.enabled:
                tracer.counter("fleet.chunks_on_arrival").add()
            return done
    completions, _ = simulate_chunk(
        arrivals.tolist(), services.tolist(), policy, num_servers, parallelism, rseed
    )
    return np.array(completions)


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
        require_positive_finite(
            service_mean_s=self.service_mean_s, offered_qps=self.offered_qps
        )
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

    :func:`simulate_chunk` routes and serves the generated request stream:
    ``random``/``round_robin`` fix the routing up front and reduce each
    server to an isolated FCFS G/G/k recurrence
    (:func:`fcfs_completion_times`); the queue-state-aware ``jsq``/``po2``
    run :func:`balanced_completion_times`, which tracks each server's
    in-system count as its backlog evolves; a fault schedule runs
    :func:`faulted_completion_times` for every policy.

    A non-empty ``faults`` schedule adds the dependability accounting of
    :func:`repro.faults.inject.run_faulted`; a schedule naming a server the
    cluster lacks is rejected.  An empty (or ``None``) schedule is the
    un-faulted run, byte-identical to one that never heard of faults.
    """

    def __init__(
        self,
        config: ClusterConfig,
        seed: int = 1,
        faults: "FaultSchedule | None" = None,
    ):
        if faults is not None and faults.is_empty():
            faults = None
        if faults is not None and any(
            event.server >= config.num_servers
            for event in (*faults.crashes, *faults.stragglers)
        ):
            raise ValueError(f"faults name a server outside 0..{config.num_servers - 1}")
        self.config = config
        self.seed = seed
        self.faults = faults

    def _generate_request_arrays(self, count: int) -> "tuple[np.ndarray, np.ndarray]":
        """(arrival times, service times) -- the shared deterministic streams.

        Arrivals and service times come from separate seeded streams,
        preserving the common-random-numbers structure.
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
        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("service.requests").add(num_requests)
        with tracer.span(
            "service.cluster",
            category="service",
            policy=self.config.policy,
            requests=num_requests,
            servers=self.config.num_servers,
        ):
            if self.faults is not None:
                from repro.faults.inject import run_faulted

                return run_faulted(self, num_requests, self.faults)
            return self._simulate(num_requests)[0]

    def _simulate(
        self, num_requests: int, schedule: "FaultSchedule | None" = None
    ) -> "tuple[ClusterResult, FaultTally | None]":
        """``(result, fault tally)`` from :func:`simulate_chunk`; no tally un-faulted."""
        config = self.config
        arrivals, services = self._generate_request_arrays(num_requests)
        parallelism = config.parallelism
        chunk = simulate_chunk(
            arrivals.tolist(), services.tolist(), config.policy,
            config.num_servers, parallelism, self.seed + 2, schedule,
        )

        completion_arr = np.array(chunk[0], dtype=np.float64)
        warmup = int(num_requests * config.warmup_fraction)
        assignment_arr = np.array(chunk[1], dtype=np.int64)
        # Lost and unrouted requests complete at nan and are never measured.
        measured = ~np.isnan(completion_arr)
        measured[:warmup] = False

        # Samples are in request order; every statistic downstream sorts or
        # sums symmetrically.
        latencies = (completion_arr - arrivals)[measured]
        counts = np.bincount(assignment_arr[measured], minlength=config.num_servers)

        tally = None
        if schedule is None:
            duration = float(completion_arr.max())
            busy = np.bincount(
                assignment_arr, weights=services, minlength=config.num_servers
            )
        else:
            tally = chunk[2]
            duration = tally.duration_s
            busy = np.array([station.busy_time_s for station in tally.stations])
        utilizations = busy / (duration * parallelism) if duration > 0 else busy * 0.0
        return ClusterResult(
            config=config,
            latency=LatencyStats.from_array(latencies),
            measured_requests=len(latencies),
            total_requests=num_requests,
            duration_s=duration,
            mean_utilization=float(utilizations.mean()),
            per_server_counts={
                server: int(count)
                for server, count in enumerate(counts.tolist())
                if count > 0
            },
        ), tally


def simulate_cluster(
    config: ClusterConfig,
    num_requests: int = 5_000,
    seed: int = 1,
    engine: str = "fast",
    faults: "FaultSchedule | None" = None,
) -> ClusterResult:
    """Convenience wrapper: build and run one cluster simulation.

    ``engine`` accepts only ``"fast"``: the cluster has one engine, and the
    keyword stays because the benchmark harness (``perfbench/``) passes
    ``engine="fast"``.
    """
    if engine != "fast":
        raise ValueError(f"engine must be 'fast', the only cluster engine, got {engine!r}")
    return ClusterSimulation(config, seed=seed, faults=faults).run(num_requests)
