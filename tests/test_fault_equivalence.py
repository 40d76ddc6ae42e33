"""Property-based equivalence suite for fault-injected clusters.

The contract under test: a faulted request stream on the fast kernel
(``simulate_chunk`` with a schedule) and on the discrete-event oracle
(``tests/oracles/service_events.py``), fed identical request arrays and the
same fault schedule, produce **bit-identical** results -- the same
completions (``nan`` for lost and unrouted requests), assignments, fault
tallies and ``faults.*`` counters, and so the same completed latencies,
routing counts, run duration and dependability accounting.  Only busy time
is summed in a different order and compared approximately, as in the
un-faulted suites.

Schedules are built on the run's own time instants, so the engines' tie rules
are exercised: crashes and restarts land on arrival instants, and with grid
arrivals and whole-gap deterministic service every completion lands on an
arrival instant too, so the same faults also sit on completion instants.
"""

import contextlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.service.cluster as cluster_module
from oracles.service_events import (
    assert_matches_event_run,
    assert_same_chunk,
    event_engine,
    simulate_chunk_events,
)
from repro.faults import FaultSchedule, ServerCrash, Straggler
from repro.obs.tracer import Tracer, use_tracer
from repro.service.cluster import ClusterConfig, simulate_chunk, simulate_cluster

POLICIES = ("jsq", "po2", "random", "round_robin")
REQUESTS = 400
#: Grid arrival rate: a power of two keeps every grid instant an exact float.
GRID_RATE = 1024.0

DETERMINISTIC = settings(derandomize=True, max_examples=30, deadline=None)

slots = st.integers(min_value=0, max_value=REQUESTS + 40)
lengths = st.integers(min_value=1, max_value=REQUESTS // 2)

faulted_runs = st.fixed_dictionaries(
    {
        "num_servers": st.integers(min_value=1, max_value=4),
        "parallelism": st.sampled_from([1, 2, 12]),
        "utilization": st.floats(min_value=0.3, max_value=1.2),
        "grid": st.booleans(),
        "seed": st.integers(min_value=0, max_value=2**20),
        # (server, first slot, slots down); overlapping windows come free.
        "crashes": st.lists(st.tuples(st.integers(0, 3), slots, lengths), max_size=6),
        "blackout": st.booleans(),
        "stragglers": st.lists(
            st.tuples(
                st.integers(0, 3), slots, lengths, st.sampled_from([1.0, 2.0, 3.0, 8.0])
            ),
            max_size=3,
        ),
    }
)


class GridArrivals:
    """Arrivals exactly every ``1 / rate_rps`` seconds (test-only process)."""

    def __init__(self, rate_rps):
        self.rate_rps = rate_rps

    def sample_times(self, rng, count):
        return np.arange(1, count + 1) / self.rate_rps


def _config(params) -> ClusterConfig:
    servers, units = params["num_servers"], params["parallelism"]
    if params["grid"]:
        # A whole number of grid gaps per request: completions hit arrivals.
        gaps = max(1, round(params["utilization"] * servers * units))
        return ClusterConfig(
            num_servers=servers,
            parallelism=units,
            service_mean_s=gaps / GRID_RATE,
            offered_qps=GRID_RATE,
            policy=params["policy"],
            service_distribution="deterministic",
        )
    service_mean_s = 0.01
    return ClusterConfig(
        num_servers=servers,
        parallelism=units,
        service_mean_s=service_mean_s,
        offered_qps=params["utilization"] * servers * units / service_mean_s,
        policy=params["policy"],
    )


def _grid(enabled: bool):
    """Swap the cluster's arrival process for :class:`GridArrivals` if ``enabled``."""
    if not enabled:
        return contextlib.nullcontext()
    return mock.patch.object(
        cluster_module, "make_arrivals", lambda name, rate, **_: GridArrivals(rate)
    )


def _arrays(config, params) -> "tuple[list[float], list[float]]":
    """The run's (arrivals, services), as both engines will generate them."""
    with _grid(params["grid"]):
        simulation = cluster_module.ClusterSimulation(config, seed=params["seed"])
        return tuple(
            array.tolist() for array in simulation._generate_request_arrays(REQUESTS)
        )


def _schedule(config, params) -> FaultSchedule:
    """The drawn fault load, every time on an arrival (or grid) instant."""
    arrivals = _arrays(config, params)[0]
    gap = 1.0 / config.offered_qps

    def instant(slot: int) -> float:
        if slot < len(arrivals):
            return arrivals[slot]
        return arrivals[-1] + (slot - len(arrivals) + 1) * gap

    servers = config.num_servers
    crashes = [
        ServerCrash(server % servers, instant(slot), instant(slot + length))
        for server, slot, length in params["crashes"]
    ]
    if params["blackout"]:
        # Every server down over one span: arrivals inside it are unrouted.
        middle = REQUESTS // 2
        crashes += [
            ServerCrash(server, instant(middle), instant(middle + 30))
            for server in range(servers)
        ]
    stragglers = [
        Straggler(server % servers, instant(slot), instant(slot + length), slowdown)
        for server, slot, length, slowdown in params["stragglers"]
    ]
    return FaultSchedule(crashes=crashes, stragglers=stragglers)


def _fault_counters(tracer) -> "dict[str, float]":
    return {
        name: value
        for name, value in tracer.counters().items()
        if name.startswith("faults.")
    }


def _run(config, params, schedule, engine):
    """``(result or error message, faults.* counters)`` of one traced run."""
    tracer = Tracer()
    oracle = event_engine() if engine == "event" else contextlib.nullcontext()
    with use_tracer(tracer), _grid(params["grid"]), oracle:
        try:
            result = simulate_cluster(
                config, num_requests=REQUESTS, seed=params["seed"], faults=schedule
            )
        except ValueError as error:  # no completed request left to measure
            result = str(error)
    return result, _fault_counters(tracer)


def _assert_chunks_identical(config, params, schedule):
    """The kernel's and the oracle's completions, routing, tally, counters."""
    arrivals, services = _arrays(config, params)
    shape = (
        config.policy, config.num_servers, config.parallelism, params["seed"] + 2, schedule
    )
    runs = []
    for simulate in (simulate_chunk, simulate_chunk_events):
        tracer = Tracer()
        with use_tracer(tracer):
            runs.append((simulate(arrivals, services, *shape), _fault_counters(tracer)))
    (fast, fast_counters), (event, event_counters) = runs
    assert_same_chunk(fast, event)
    assert fast_counters == event_counters


def _assert_faulted_identical(config, params, schedule):
    _assert_chunks_identical(config, params, schedule)
    fast, fast_counters = _run(config, params, schedule, "fast")
    event, event_counters = _run(config, params, schedule, "event")
    assert fast_counters == event_counters
    if isinstance(event, str):
        assert fast == event
        return event
    assert np.array_equal(
        np.sort(np.array(fast.latency.samples)),
        np.sort(np.array(event.latency.samples)),
    )
    assert fast.per_server_counts == event.per_server_counts
    assert fast.duration_s == event.duration_s
    assert fast.dependability == event.dependability
    assert fast.mean_utilization == pytest.approx(event.mean_utilization)
    with _grid(params["grid"]):
        assert_matches_event_run(fast, REQUESTS, params["seed"], schedule)
    return event


class TestFaultedEngineEquivalence:
    """Faulted fast kernel == faulted event oracle, bit for bit."""

    @pytest.mark.parametrize("policy", POLICIES)
    @given(params=faulted_runs)
    @DETERMINISTIC
    def test_fast_matches_event_bitwise(self, policy, params):
        """Samples, counts, duration, dependability and counters agree on
        randomized clusters and schedules."""
        params = {**params, "policy": policy}
        config = _config(params)
        schedule = _schedule(config, params)
        if schedule.is_empty():
            schedule = FaultSchedule(
                crashes=(ServerCrash(0, 0.0, _arrays(config, params)[0][REQUESTS // 3]),)
            )
        _assert_faulted_identical(config, params, schedule)

    @pytest.mark.parametrize("parallelism", [1, 12])
    @pytest.mark.parametrize("policy", POLICIES)
    def test_every_fault_rule_at_once(self, policy, parallelism):
        """One grid schedule per policy that provably reaches each rule:
        a crash on an arrival that is also a completion instant, a restart
        on a completion instant, overlapping windows, an all-down span with
        unrouted requests, stragglers, and losses."""
        params = {
            "policy": policy,
            "num_servers": 3,
            "parallelism": parallelism,
            "utilization": 0.9,
            "grid": True,
            "seed": 5,
            "crashes": [
                (0, 60, 90), (0, 100, 80), (1, 120, 40), (2, 300, 7),
                (1, 330, 13), (2, 40, 11), (0, 370, 5),
            ],
            "blackout": True,
            # Server 2's windows overlap; the larger slowdown wins, not the later.
            "stragglers": [(1, 0, 150, 2.0), (2, 280, 30, 8.0), (2, 250, 100, 3.0)],
        }
        config = _config(params)
        schedule = _schedule(config, params)
        event = _assert_faulted_identical(config, params, schedule)
        dependability = event.dependability
        assert dependability.lost_requests > 0
        assert dependability.unrouted_requests > 0
        assert dependability.mean_time_to_recover_s > 0.0
        # Grid arrivals + whole-gap service put completions on arrival
        # instants; some crash and some restart share an instant with one.
        arrivals, services = _arrays(config, params)
        completions, _, _ = simulate_chunk(
            arrivals, services, policy, 3, parallelism, params["seed"] + 2, schedule
        )
        finished = set(completions)
        assert finished & {crash.at_s for crash in schedule.crashes}
        assert finished & {crash.restart_s for crash in schedule.crashes}
        assert {crash.at_s for crash in schedule.crashes} <= set(arrivals)

    @pytest.mark.parametrize("engine", ["fast", "event"])
    def test_crash_loses_in_service_and_queued_work(self, engine):
        """One unit, ten grid arrivals of four gaps each: a crash at 37 gaps
        (request 8's completion instant) loses request 8, in service, whose
        stale completion still fires at 37, and request 9, queued to start
        at 37, which never fires -- so the run ends at the restart (38), not
        at request 9's would-be completion (41)."""
        gap = 1.0 / GRID_RATE
        arrivals = [(k + 1) * gap for k in range(10)]
        services = [4 * gap] * 10
        schedule = FaultSchedule(crashes=(ServerCrash(0, 37 * gap, 38 * gap),))
        simulate = simulate_chunk if engine == "fast" else simulate_chunk_events
        completions, _, tally = simulate(arrivals, services, "jsq", 1, 1, 0, schedule)
        station = tally.stations[0]
        assert (station.completed, station.lost) == (8, 2)
        assert station.unresolved_crashes_s == (37 * gap,)
        assert tally.duration_s == 38 * gap
        assert [math.isnan(c) for c in completions] == [False] * 8 + [True] * 2
