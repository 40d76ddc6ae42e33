"""Tests for the datacenter service simulation subsystem."""

import copy
import dataclasses
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.service.cluster as cluster_module
from oracles.service_events import (
    assert_matches_event_run,
    assert_same_chunk,
    event_engine,
    simulate_chunk_events,
)
from repro.faults import FaultLoadConfig, FaultLoadGenerator
from repro.fleet import Datacenter, FleetConfig, Region
from repro.service import (
    ClusterConfig,
    ClusterSizer,
    LatencyStats,
    MmkQueue,
    MmppArrivals,
    PoissonArrivals,
    SlaInfeasibleError,
    calibrate_chip,
    erlang_b,
    erlang_c,
    make_arrivals,
    make_service_time,
    saturation_qps,
    simulate_cluster,
)
from repro.service.draws import randrange_batch, uniform_batch
from repro.tco.datacenter import DatacenterDesign
from repro.workloads.cloudsuite import WEB_SEARCH
from repro.workloads.suite import WorkloadSuite


def small_cluster(
    utilization,
    policy="jsq",
    num_servers=4,
    parallelism=4,
    service_mean_s=0.002,
    **overrides,
):
    return ClusterConfig(
        num_servers=num_servers,
        parallelism=parallelism,
        service_mean_s=service_mean_s,
        offered_qps=utilization * num_servers * parallelism / service_mean_s,
        policy=policy,
        **overrides,
    )


class GridArrivals:
    """Arrivals exactly every ``1 / rate_rps`` seconds (test-only process).

    With a power-of-two rate and a deterministic service time that is a whole
    number of gaps, every completion lands exactly on a later arrival's
    timestamp, which exercises the fast engine's strict ``<`` drain.
    """

    def __init__(self, rate_rps):
        self.rate_rps = rate_rps

    def sample_times(self, rng, count):
        return np.arange(1, count + 1) / self.rate_rps


#: (policy, ``small_cluster`` overrides, requests, grid arrivals) per
#: fast==event case.  The plain cases keep the bare policy as their id; the
#: others reach widths, loads and ties the hypothesis suite never draws.
FAST_EVENT_CASES = [
    pytest.param(policy, {}, 2_500, False, id=policy)
    for policy in ("random", "round_robin", "po2", "jsq")
] + [
    pytest.param(policy, shape, requests, grid, id=f"{policy}-{name}")
    for policy in ("jsq", "po2")
    for name, shape, requests, grid in (
        ("128x8", dict(utilization=0.9, num_servers=128, parallelism=8), 20_000, False),
        ("1x1", dict(num_servers=1, parallelism=1), 2_500, False),
        ("4x1", dict(num_servers=4, parallelism=1), 2_500, False),
        ("saturated-4x2", dict(utilization=1.5, num_servers=4, parallelism=2), 2_500, False),
        (
            "deterministic-ties",
            dict(
                utilization=0.75, num_servers=4, parallelism=1,
                service_mean_s=3 / 512, service_distribution="deterministic",
            ),
            2_500,
            True,
        ),
    )
]


class TestArrivals:
    def test_poisson_mean_rate(self):
        rng = random.Random(7)
        gaps = PoissonArrivals(rate_rps=100.0).gaps(rng)
        total = sum(next(gaps) for _ in range(20_000))
        assert total == pytest.approx(200.0, rel=0.05)

    def test_poisson_seeded_streams_scale_with_rate(self):
        slow = PoissonArrivals(rate_rps=100.0).gaps(random.Random(3))
        fast = PoissonArrivals(rate_rps=400.0).gaps(random.Random(3))
        for _ in range(100):
            assert next(slow) == pytest.approx(4.0 * next(fast))

    def test_mmpp_mean_rate_and_phases(self):
        process = MmppArrivals(rate_rps=1000.0, burstiness=4.0, burst_fraction=0.2)
        assert process.burst_rate_rps == pytest.approx(4.0 * process.quiet_rate_rps)
        mix = 0.8 * process.quiet_rate_rps + 0.2 * process.burst_rate_rps
        assert mix == pytest.approx(1000.0)
        gaps = process.gaps(random.Random(11))
        total = sum(next(gaps) for _ in range(40_000))
        assert total == pytest.approx(40.0, rel=0.1)

    def test_mmpp_is_burstier_than_poisson(self):
        def cv_of_gaps(process, seed, n=20_000):
            gaps_iter = process.gaps(random.Random(seed))
            gaps = [next(gaps_iter) for _ in range(n)]
            mean = sum(gaps) / n
            var = sum((g - mean) ** 2 for g in gaps) / n
            return math.sqrt(var) / mean

        poisson_cv = cv_of_gaps(PoissonArrivals(rate_rps=1000.0), 5)
        mmpp_cv = cv_of_gaps(MmppArrivals(rate_rps=1000.0, burstiness=8.0), 5)
        assert poisson_cv == pytest.approx(1.0, rel=0.05)
        assert mmpp_cv > 1.1

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown arrival process"):
            make_arrivals("pareto", 100.0)


class TestServiceTimes:
    @pytest.mark.parametrize("name", ["deterministic", "exponential", "lognormal"])
    def test_sample_mean_matches(self, name):
        distribution = make_service_time(name, 0.004)
        rng = random.Random(13)
        samples = [distribution.sample(rng) for _ in range(20_000)]
        assert sum(samples) / len(samples) == pytest.approx(0.004, rel=0.05)

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown service distribution"):
            make_service_time("weibull", 0.004)


class TestLatencyStats:
    def test_percentiles_interpolate(self):
        stats = LatencyStats.from_iterable(float(i) for i in range(1, 101))
        assert stats.percentile(0.5) == pytest.approx(50.5)
        assert stats.percentile(0.0) == 1.0
        assert stats.percentile(1.0) == 100.0
        assert stats.p99_s == pytest.approx(99.01)

    def test_empty_reports_nan_not_crash(self):
        """Zero-sample stats (e.g. a starved priority class) report NaN."""
        import math

        stats = LatencyStats(samples=())
        assert stats.count == 0
        assert math.isnan(stats.mean_s)
        assert math.isnan(stats.max_s)
        assert math.isnan(stats.p99_s)
        assert math.isnan(stats.percentile(0.5))
        assert all(math.isnan(v) for v in stats.summary().values())


class TestClusterSimulation:
    def test_same_seed_is_deterministic(self):
        config = small_cluster(0.8)
        a = simulate_cluster(config, num_requests=2_000, seed=9)
        b = simulate_cluster(config, num_requests=2_000, seed=9)
        assert a.latency.samples == b.latency.samples
        assert a.per_server_counts == b.per_server_counts

    def test_different_seeds_differ(self):
        config = small_cluster(0.8)
        a = simulate_cluster(config, num_requests=2_000, seed=9)
        b = simulate_cluster(config, num_requests=2_000, seed=10)
        assert a.latency.samples != b.latency.samples

    def test_warmup_excluded_from_stats(self):
        config = small_cluster(0.8, warmup_fraction=0.25)
        result = simulate_cluster(config, num_requests=2_000, seed=9)
        assert result.measured_requests == 1_500
        assert result.total_requests == 2_000

    def test_utilization_tracks_offered_load(self):
        result = simulate_cluster(small_cluster(0.6), num_requests=6_000, seed=4)
        assert result.mean_utilization == pytest.approx(0.6, rel=0.15)

    def test_mmk_mean_wait_matches_erlang_c(self):
        """M/M/4 at 70% utilization: simulated mean wait vs the closed form."""
        mu = 500.0
        queue = MmkQueue(servers=4, service_rate_rps=mu, arrival_rate_rps=0.7 * 4 * mu)
        config = small_cluster(0.7, num_servers=1, policy="random")
        result = simulate_cluster(config, num_requests=30_000, seed=5)
        simulated_wait = result.latency.mean_s - config.service_mean_s
        assert simulated_wait == pytest.approx(queue.mean_wait_s, rel=0.2)

    @pytest.mark.parametrize("policy", ["random", "round_robin", "po2", "jsq"])
    def test_all_policies_run_and_balance(self, policy):
        result = simulate_cluster(
            small_cluster(0.7, policy=policy), num_requests=2_000, seed=21
        )
        counts = result.per_server_counts
        assert len(counts) == 4  # every server saw traffic
        assert sum(counts.values()) == result.measured_requests

    def test_jsq_mean_latency_never_worse_than_random(self):
        """JSQ beats (or ties) random routing at equal load, across seeds."""
        for seed in (1, 2, 3, 17, 42):
            jsq = simulate_cluster(
                small_cluster(0.85, policy="jsq"), num_requests=4_000, seed=seed
            )
            rnd = simulate_cluster(
                small_cluster(0.85, policy="random"), num_requests=4_000, seed=seed
            )
            assert jsq.latency.mean_s <= rnd.latency.mean_s

    @pytest.mark.parametrize("policy, shape, num_requests, grid", FAST_EVENT_CASES)
    def test_fast_engine_matches_event_engine(
        self, policy, shape, num_requests, grid, monkeypatch
    ):
        """The kernels reproduce the event oracle exactly for every policy
        and cluster width: each request's completion and server, and so the
        same sorted latencies, counts, and duration."""
        if grid:
            monkeypatch.setattr(
                cluster_module, "make_arrivals", lambda name, rate, **_: GridArrivals(rate)
            )
        overrides = dict(shape)
        config = small_cluster(overrides.pop("utilization", 0.85), policy=policy, **overrides)
        arrivals, services = (
            array.tolist()
            for array in cluster_module.ClusterSimulation(
                config, seed=11
            )._generate_request_arrays(num_requests)
        )
        kernel_args = (policy, config.num_servers, config.parallelism, 11 + 2)
        assert_same_chunk(
            cluster_module.simulate_chunk(arrivals, services, *kernel_args),
            simulate_chunk_events(arrivals, services, *kernel_args),
        )
        fast = simulate_cluster(config, num_requests=num_requests, seed=11)
        with event_engine():
            event = simulate_cluster(config, num_requests=num_requests, seed=11)
        assert np.array_equal(
            np.sort(np.array(fast.latency.samples)),
            np.sort(np.array(event.latency.samples)),
        )
        assert fast.per_server_counts == event.per_server_counts
        assert fast.duration_s == event.duration_s
        assert fast.latency.p99_s == event.latency.p99_s
        assert fast.mean_utilization == pytest.approx(event.mean_utilization)
        assert_matches_event_run(fast, num_requests, 11)

    @pytest.mark.parametrize("faulted", [False, True], ids=["unfaulted", "crashes"])
    @pytest.mark.parametrize("policy", ["random", "round_robin", "po2", "jsq"])
    def test_runners_leave_inputs_unmodified_and_repeat(self, policy, faulted):
        """``simulate_chunk`` and the event oracle never mutate their arrival
        and service lists or the fault schedule, and two fresh runs compare
        equal."""
        config = small_cluster(0.85, policy=policy)
        arrivals, services = (
            array.tolist()
            for array in cluster_module.ClusterSimulation(
                config, seed=11
            )._generate_request_arrays(2_000)
        )
        schedule = None
        if faulted:
            load = FaultLoadConfig(crash_intensity=2.0, straggler_intensity=1.0)
            schedule = FaultLoadGenerator(load, seed=7).schedule(
                config.num_servers, 2_000 / config.offered_qps
            )
            assert schedule.crashes and schedule.stragglers
        snapshot = (list(arrivals), list(services), copy.deepcopy(schedule))
        shape = (policy, config.num_servers, config.parallelism, 13)

        def fresh_runs():
            return (
                cluster_module.simulate_chunk(arrivals, services, *shape, schedule),
                simulate_chunk_events(arrivals, services, *shape, schedule),
            )

        first, second = fresh_runs(), fresh_runs()
        assert (arrivals, services, schedule) == snapshot
        assert first == second
        assert_same_chunk(*first)

    def test_engine_name_validation(self):
        # One engine: simulate_cluster keeps the keyword for "fast" only.
        config = small_cluster(0.5, policy="jsq")
        assert simulate_cluster(config, num_requests=100, engine="fast") == simulate_cluster(
            config, num_requests=100
        )
        for engine in ("warp", "event", "auto"):
            with pytest.raises(ValueError, match="^engine must be 'fast'"):
                simulate_cluster(config, num_requests=100, engine=engine)
        with pytest.raises(TypeError):
            cluster_module.ClusterSimulation(config, engine="fast")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("parallelism", 0, "parallelism must be >= 1"),
            ("parallelism", -1, "parallelism must be >= 1"),
            ("service_mean_s", 0.0, "service_mean_s must be positive"),
            ("service_mean_s", -0.002, "service_mean_s must be positive"),
            ("policy", "bogus", "policy must be one of"),
            ("policy", "JSQ", "policy must be one of"),
        ],
    )
    def test_config_rejects_empty_servers_at_construction(self, field, value, message):
        # Regression: these used to fail deep in the kernel (IndexError), the
        # service sampler or the balancer factory instead of at the config
        # boundary; "JSQ" used to slip past the fast-engine check onto the
        # event engine.
        fields = dict(num_servers=4, parallelism=4, service_mean_s=0.002, offered_qps=100.0)
        fields[field] = value
        with pytest.raises(ValueError, match=message):
            ClusterConfig(**fields)

    def test_p99_rises_with_offered_load(self):
        p99s = []
        for utilization in (0.5, 0.7, 0.9, 1.1):
            result = simulate_cluster(
                small_cluster(utilization, policy="round_robin"),
                num_requests=4_000,
                seed=42,
            )
            p99s.append(result.latency.p99_s)
        assert all(later >= earlier for earlier, later in zip(p99s, p99s[1:]))
        # Past saturation the open-loop queue grows without bound.
        assert p99s[-1] > 3.0 * p99s[0]


#: Grid tick of the balanced-kernel streams: a power of two keeps every
#: arrival and every completion an exact float, so they coincide on ties.
TICK_S = 1.0 / 1024.0

balanced_streams = st.fixed_dictionaries(
    {
        "policy": st.sampled_from(["jsq", "po2"]),
        # Any width up to 130, plus those that end a 64-bit word of the level
        # masks or need one more bit per server in a drain chain.
        "num_servers": st.one_of(
            st.integers(min_value=1, max_value=130),
            st.sampled_from([2, 3, 5, 9, 17, 33, 63, 64, 65, 129]),
        ),
        "parallelism": st.integers(min_value=1, max_value=8),
        "utilization": st.sampled_from([0.3, 0.8, 1.0, 1.3]),
        "requests": st.integers(min_value=1, max_value=1_500),
        # Simultaneous arrivals at one instant, queueing several deep.
        "burst": st.sampled_from([0, 0, 40, 600]),
        # Small slot blocks send drains across block boundaries.
        "block": st.sampled_from([1, 2, 7, 64, 4096]),
        "seed": st.integers(min_value=0, max_value=2**20),
    }
)


def balanced_stream(params) -> "tuple[list[float], list[float]]":
    """Arrivals 0-4 ticks apart and one whole-tick service time at the drawn
    load, so completions land exactly on arrivals, plus the drawn burst."""
    rng = np.random.default_rng(params["seed"])
    ticks = np.cumsum(rng.integers(0, 5, params["requests"]))
    at = rng.integers(0, len(ticks))
    ticks = np.insert(ticks, at, np.full(params["burst"], ticks[at]))
    units = params["num_servers"] * params["parallelism"]
    service_ticks = round(2 * params["utilization"] * units)
    return (ticks * TICK_S).tolist(), [service_ticks * TICK_S] * len(ticks)


class TestBalancedKernel:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(balanced_streams)
    @example(
        {
            "policy": "jsq", "num_servers": 130, "parallelism": 1, "utilization": 1.0,
            "requests": 300, "burst": 600, "block": 7, "seed": 0,
        }
    )
    def test_fast_kernel_matches_event_engine(self, params):
        """``jsq``/``po2`` on the fast kernel give every request the event
        oracle's server and completion, across 64-bit words of the level masks,
        exact completion-arrival ties, bursts that queue several deep and
        drains that cross slot blocks."""
        arrivals, services = balanced_stream(params)
        shape = (
            params["policy"], params["num_servers"], params["parallelism"], params["seed"]
        )
        with mock.patch.object(cluster_module, "_SLOT_BLOCK", params["block"]):
            fast = cluster_module.simulate_chunk(arrivals, services, *shape)
        assert_same_chunk(fast, simulate_chunk_events(arrivals, services, *shape))


def peak_in_system(arrivals, completions) -> int:
    """Most requests in system at any arrival, from a run's completions: a
    request drains just after the last arrival at or before its completion."""
    slots = np.searchsorted(arrivals, completions, side="right")
    drained = np.cumsum(np.bincount(slots))[: len(arrivals)]
    return int((np.arange(len(arrivals)) - drained).max())


def chunk_completions_and_path(arrivals, services, *shape) -> "tuple[np.ndarray, bool]":
    """``chunk_completions`` on float64 copies, and whether it ran the kernel."""
    with mock.patch.object(
        cluster_module, "simulate_chunk", wraps=cluster_module.simulate_chunk
    ) as kernel:
        completions = cluster_module.chunk_completions(
            np.array(arrivals, dtype=np.float64), np.array(services, dtype=np.float64),
            *shape,
        )
    return completions, kernel.called


def assert_oracle_completions(completions, arrivals, services, *shape) -> None:
    event, _ = simulate_chunk_events(arrivals, services, *shape)
    assert np.array_equal(
        completions.view(np.uint64), np.array(event, dtype=np.float64).view(np.uint64)
    )


near_full_streams = st.fixed_dictionaries(
    {
        "num_servers": st.integers(min_value=1, max_value=8),
        "parallelism": st.integers(min_value=1, max_value=4),
        # Mean in-system count as a fraction of the n * k units.
        "load": st.sampled_from([0.25, 0.5, 0.75, 1.0]),
        "zero_fraction": st.sampled_from([0.0, 0.2, 1.0]),
        "requests": st.integers(min_value=1, max_value=300),
        "burst": st.sampled_from([0, 0, 3, 12]),
        "seed": st.integers(min_value=0, max_value=2**20),
    }
)


class TestChunkCompletions:
    """The fleet's completions-only entry skips the ``jsq`` kernel exactly
    when no arrival can find every unit busy, and never changes a bit."""

    @settings(derandomize=True, max_examples=120, deadline=None)
    @given(near_full_streams)
    def test_jsq_matches_oracle_and_skips_only_below_every_unit(self, params):
        """Grid arrivals, whole-tick services that end exactly on arrivals,
        zero services and bursts at loads around ``n * k``: the entry equals
        the oracle bit for bit, and it skips the kernel exactly when the
        oracle's run never holds ``n * k`` requests at an arrival."""
        rng = np.random.default_rng(params["seed"])
        ticks = np.cumsum(rng.integers(0, 5, params["requests"]))
        at = rng.integers(0, len(ticks))
        ticks = np.insert(ticks, at, np.full(params["burst"], ticks[at]))
        units = params["num_servers"] * params["parallelism"]
        service_ticks = np.where(
            rng.random(len(ticks)) < params["zero_fraction"],
            0,
            rng.integers(1, int(4 * params["load"] * units) + 1, len(ticks)),
        )
        arrivals = (ticks * TICK_S).tolist()
        services = (service_ticks * TICK_S).tolist()
        shape = ("jsq", params["num_servers"], params["parallelism"], params["seed"])
        completions, ran_kernel = chunk_completions_and_path(arrivals, services, *shape)
        assert_oracle_completions(completions, arrivals, services, *shape)
        assert ran_kernel == (peak_in_system(arrivals, completions) >= units)

    @pytest.mark.parametrize(
        "requests, ran_kernel",
        [(4, False), (5, True)],
        ids=["peak-n*k-1", "peak-n*k"],
    )
    def test_fixed_streams_on_either_side_of_every_unit(self, requests, ran_kernel):
        """On 2 x 2 units, the last of 4 long requests sees 3 in system and
        the last of 5 sees 4, which fills every unit."""
        arrivals = [0.25 * index for index in range(requests)]
        services = [4.0] * requests
        shape = ("jsq", 2, 2, 0)
        completions, kernel = chunk_completions_and_path(arrivals, services, *shape)
        assert kernel == ran_kernel
        assert peak_in_system(arrivals, completions) == requests - 1
        assert_oracle_completions(completions, arrivals, services, *shape)

    def test_completion_at_an_arrival_is_still_in_system(self):
        """Request 0 completes exactly when request 1 arrives, so the one
        unit counts as full and the kernel runs (request 1 still starts on
        arrival: the event model drains request 0 first)."""
        completions, ran_kernel = chunk_completions_and_path([0.0, 1.0], [1.0, 1.0], "jsq", 1, 1, 0)
        assert ran_kernel
        assert completions.tolist() == [1.0, 2.0]

    def test_po2_never_takes_the_shortcut(self):
        """Two of four servers busy, yet both ``po2`` probes of seed 8 land
        on busy ones, so request 2 queues below ``n * k``."""
        arrivals, services = [0.0, 0.25, 0.5], [4.0, 4.0, 4.0]
        shape = ("po2", 4, 1, 8)
        completions, ran_kernel = chunk_completions_and_path(arrivals, services, *shape)
        assert ran_kernel
        assert completions.tolist() == [4.0, 4.25, 8.0]
        assert_oracle_completions(completions, arrivals, services, *shape)

    @pytest.mark.parametrize(
        "arrivals, services, message",
        [
            ([0.3, 0.1], [0.4, 0.4], "arrivals must be"),
            ([0.1, 0.3], [0.4, math.nan], "services must be"),
            ([0.1, 0.3], [0.4], "services must give one time"),
        ],
    )
    def test_rejects_bad_streams_before_the_shortcut(self, arrivals, services, message):
        with pytest.raises(ValueError, match=message):
            cluster_module.chunk_completions(
                np.array(arrivals), np.array(services), "jsq", 8, 4, 0
            )


class TestBulkDraws:
    @pytest.mark.parametrize("count", [0, 1, 7, 80_000])
    def test_uniform_batch_replays_random(self, count):
        bulk, loop = random.Random(2024), random.Random(2024)
        values = uniform_batch(bulk, count)
        assert values.dtype == np.float64
        assert values.tolist() == [loop.random() for _ in range(count)]
        assert bulk.getstate() == loop.getstate()

    @pytest.mark.parametrize("count", [0, 1, 501])
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 65, 128, 1000])
    def test_randrange_batch_replays_randrange(self, n, count):
        bulk, loop = random.Random(n), random.Random(n)
        assert randrange_batch(bulk, n, count) == [loop.randrange(n) for _ in range(count)]
        assert bulk.getstate() == loop.getstate()

    @pytest.mark.parametrize("n", [0, -3, 2**32])
    def test_randrange_batch_rejects_ranges_it_cannot_replay(self, n):
        with pytest.raises(ValueError, match="n must be in"):
            randrange_batch(random.Random(0), n, 4)


def _cluster_config(**fields):
    defaults = dict(num_servers=4, parallelism=4, service_mean_s=0.002, offered_qps=100.0)
    return ClusterConfig(**{**defaults, **fields})


def _datacenter(**fields):
    defaults = dict(num_servers=2, parallelism=4, service_mean_s=0.002)
    return Datacenter("dc", Region("dc"), **{**defaults, **fields})


def _fleet_config(**fields):
    return FleetConfig(**{"datacenters": (_datacenter(),), "offered_qps": 100.0, **fields})


class TestBoundaryChecks:
    @pytest.mark.parametrize(
        "arrivals, services, message",
        [
            # The two engines used to disagree here: request 0 got 0.4 s on
            # the fast engine and 0.6 s on the event engine.
            ([0.3, 0.1, 0.2, 0.5], [0.4] * 4, "arrivals must be"),
            ([0.1, math.nan, 0.3, 0.5], [0.4] * 4, "arrivals must be"),
            ([0.1, 0.2, 0.3, math.inf], [0.4] * 4, "arrivals must be"),
            ([-0.1, 0.2, 0.3, 0.5], [0.4] * 4, "arrivals must be"),
            ([0.1, 0.2, 0.3, 0.5], [0.4, math.nan, 0.4, 0.4], "services must be"),
            ([0.1, 0.2, 0.3, 0.5], [0.4, math.inf, 0.4, 0.4], "services must be"),
            ([0.1, 0.2, 0.3, 0.5], [0.4, -0.4, 0.4, 0.4], "services must be"),
            ([0.1, 0.2, 0.3, 0.5], [0.4] * 3, "services must give one time"),
        ],
    )
    @pytest.mark.parametrize("faulted", [False, True], ids=["unfaulted", "crashes"])
    def test_both_engines_reject_bad_streams(self, arrivals, services, message, faulted):
        schedule = None
        if faulted:
            schedule = FaultLoadGenerator(
                FaultLoadConfig(crash_intensity=2.0), seed=7
            ).schedule(2, 1.0)
        with pytest.raises(ValueError, match=message):
            cluster_module.simulate_chunk(arrivals, services, "jsq", 2, 1, 0, schedule)
        with pytest.raises(ValueError, match=message):
            simulate_chunk_events(arrivals, services, "jsq", 2, 1, 0, schedule)

    def test_ties_and_zero_service_are_accepted(self):
        arrivals, services = [0.0, 0.25, 0.25, 0.5], [0.25, 0.0, 0.25, 0.25]
        completions, _ = cluster_module.simulate_chunk(arrivals, services, "jsq", 2, 1, 0)
        assert completions == [0.25, 0.25, 0.5, 0.75]

    @pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "build, field",
        [
            (_cluster_config, "service_mean_s"),
            (_cluster_config, "offered_qps"),
            (_datacenter, "service_mean_s"),
            (_fleet_config, "offered_qps"),
        ],
        ids=["cluster-service", "cluster-qps", "datacenter-service", "fleet-qps"],
    )
    def test_configs_reject_non_finite_fields(self, build, field, value):
        build()
        with pytest.raises(ValueError, match=f"^{field} must be positive and finite"):
            build(**{field: value})


class TestErlang:
    def test_erlang_b_small_case(self):
        # B(2, 1) = (1/2) / (1 + 1 + 1/2) = 0.2
        assert erlang_b(2, 1.0) == pytest.approx(0.2)

    def test_erlang_c_single_server_is_rho(self):
        assert erlang_c(1, 0.3) == pytest.approx(0.3)

    def test_erlang_c_saturated_is_one(self):
        assert erlang_c(4, 4.0) == 1.0
        assert erlang_c(4, 5.0) == 1.0

    def test_mmk_latency_quantile_brackets_survival(self):
        queue = MmkQueue(servers=8, service_rate_rps=500.0, arrival_rate_rps=3_000.0)
        p99 = queue.latency_quantile(0.99)
        assert queue.latency_survival(p99) == pytest.approx(0.01, rel=1e-3)
        assert queue.latency_quantile(0.5) < p99

    def test_mmk_unstable_metrics_are_infinite(self):
        queue = MmkQueue(servers=2, service_rate_rps=100.0, arrival_rate_rps=300.0)
        assert math.isinf(queue.mean_wait_s)
        assert math.isinf(queue.latency_quantile(0.99))

    def test_saturation_qps_below_capacity(self):
        rate = saturation_qps(16, 500.0, sla_p99_s=0.02)
        assert 0.0 < rate < 16 * 500.0
        # A tighter SLA admits less load.
        assert saturation_qps(16, 500.0, sla_p99_s=0.012) < rate


class TestBalancers:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="'least_connections'"):
            cluster_module.simulate_chunk([0.0], [1.0], "least_connections", 2, 1, 0)
        with pytest.raises(ValueError, match="'least_connections'"):
            simulate_chunk_events([0.0], [1.0], "least_connections", 2, 1, 0)

    def test_round_robin_cycles(self):
        arrivals, services = [0.1 * k for k in range(6)], [1.0] * 6
        _, assignment = cluster_module.simulate_chunk(arrivals, services, "round_robin", 3, 1, 0)
        assert assignment == [0, 1, 2, 0, 1, 2]


class TestSizing:
    @pytest.fixture(scope="class")
    def sizer_setup(self):
        from repro.experiments.service import build_service_chip

        suite = WorkloadSuite((WEB_SEARCH,))
        chip = build_service_chip("Scale-Out (OoO)", suite)
        sizer = ClusterSizer(DatacenterDesign())
        return sizer, chip, WEB_SEARCH

    def test_sizing_meets_sla_at_minimum(self, sizer_setup):
        sizer, chip, workload = sizer_setup
        result = sizer.size(chip, workload, target_qps=500_000.0, sla_p99_s=0.025)
        assert result.p99_s <= 0.025
        assert result.utilization < 1.0
        # One server fewer must violate the SLA (or stability).
        if result.servers > 1:
            queue = sizer.server_queue(
                calibrate_chip(chip, workload),
                result.sockets_per_server,
                500_000.0 / (result.servers - 1),
            )
            assert queue.latency_quantile(0.99) > 0.025

    def test_more_qps_needs_at_least_as_many_servers(self, sizer_setup):
        sizer, chip, workload = sizer_setup
        servers = [
            sizer.size(chip, workload, target_qps=qps, sla_p99_s=0.025).servers
            for qps in (100_000.0, 300_000.0, 1_000_000.0, 3_000_000.0)
        ]
        assert servers == sorted(servers)
        assert servers[-1] > servers[0]

    def test_tighter_sla_never_needs_fewer_servers(self, sizer_setup):
        sizer, chip, workload = sizer_setup
        loose = sizer.size(chip, workload, target_qps=1_000_000.0, sla_p99_s=0.040)
        tight = sizer.size(chip, workload, target_qps=1_000_000.0, sla_p99_s=0.016)
        assert tight.servers >= loose.servers

    def test_tco_scales_with_cluster(self, sizer_setup):
        sizer, chip, workload = sizer_setup
        small = sizer.size(chip, workload, target_qps=200_000.0, sla_p99_s=0.025)
        large = sizer.size(chip, workload, target_qps=2_000_000.0, sla_p99_s=0.025)
        assert large.monthly_tco_usd > small.monthly_tco_usd
        assert large.racks >= small.racks
        breakdown = large.tco_breakdown
        assert breakdown.total == pytest.approx(large.monthly_tco_usd)

    def test_infeasible_sla_raises(self, sizer_setup):
        sizer, chip, workload = sizer_setup
        capacity = calibrate_chip(chip, workload)
        impossible = 0.5 * math.log(100.0) / capacity.unit_rate_rps
        with pytest.raises(SlaInfeasibleError, match="zero-load p99"):
            sizer.size(chip, workload, target_qps=1_000.0, sla_p99_s=impossible)


class TestCalibration:
    def test_rate_follows_ipc_clock_and_request_cost(self):
        from repro.experiments.service import build_service_chip
        from repro.perfmodel.analytic import estimate as analytic_estimate

        suite = WorkloadSuite((WEB_SEARCH,))
        chip = build_service_chip("Scale-Out (OoO)", suite)
        capacity = calibrate_chip(chip, WEB_SEARCH)
        estimate = analytic_estimate(WEB_SEARCH, chip.pod)
        expected = (
            estimate.per_core_ipc
            * chip.node.frequency_ghz
            * 1e9
            / WEB_SEARCH.instructions_per_request
        )
        assert capacity.unit_rate_rps == pytest.approx(expected)
        assert capacity.units_per_chip == (
            min(chip.pod.cores, WEB_SEARCH.max_cores) * chip.num_pods
        )
        assert capacity.chip_rate_rps == pytest.approx(
            capacity.units_per_chip * capacity.unit_rate_rps
        )

    def test_cheaper_requests_mean_higher_rate(self):
        from repro.experiments.service import build_service_chip

        suite = WorkloadSuite((WEB_SEARCH,))
        chip = build_service_chip("Scale-Out (OoO)", suite)
        cheap = dataclasses.replace(WEB_SEARCH, instructions_per_request=1_000_000.0)
        expensive = dataclasses.replace(WEB_SEARCH, instructions_per_request=8_000_000.0)
        assert (
            calibrate_chip(chip, cheap).unit_rate_rps
            > calibrate_chip(chip, expensive).unit_rate_rps
        )
