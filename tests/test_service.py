"""Tests for the datacenter service simulation subsystem."""

import copy
import math
import random

import numpy as np
import pytest

import repro.service.cluster as cluster_module
from repro.faults import FaultLoadConfig, FaultLoadGenerator
from repro.service import (
    ClusterConfig,
    ClusterSizer,
    LatencyCollector,
    LatencyStats,
    MmkQueue,
    MmppArrivals,
    PoissonArrivals,
    SlaInfeasibleError,
    calibrate_chip,
    erlang_b,
    erlang_c,
    make_arrivals,
    make_balancer,
    make_service_time,
    saturation_qps,
    simulate_cluster,
)
from repro.service.queueing import run_events
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
        assert stats.p50_s == pytest.approx(50.5)
        assert stats.percentile(0.0) == 1.0
        assert stats.percentile(1.0) == 100.0
        assert stats.p99_s == pytest.approx(99.01)

    def test_sla_predicate(self):
        stats = LatencyStats.from_iterable([1.0, 2.0, 3.0])
        assert stats.meets_sla(3.0)
        assert not stats.meets_sla(2.5)

    def test_empty_reports_nan_not_crash(self):
        """Zero-sample stats (e.g. a starved priority class) report NaN."""
        import math

        stats = LatencyStats(samples=())
        assert stats.count == 0
        assert math.isnan(stats.mean_s)
        assert math.isnan(stats.max_s)
        assert math.isnan(stats.p99_s)
        assert math.isnan(stats.percentile(0.5))
        assert not stats.meets_sla(1.0)
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
        """The fast engine reproduces the event engine exactly for every
        policy and cluster width: same sorted latencies, counts, and duration."""
        if grid:
            monkeypatch.setattr(
                cluster_module, "make_arrivals", lambda name, rate, **_: GridArrivals(rate)
            )
        overrides = dict(shape)
        config = small_cluster(overrides.pop("utilization", 0.85), policy=policy, **overrides)
        fast = simulate_cluster(config, num_requests=num_requests, seed=11, engine="fast")
        event = simulate_cluster(config, num_requests=num_requests, seed=11, engine="event")
        assert np.array_equal(
            np.sort(np.array(fast.latency.samples)),
            np.sort(np.array(event.latency.samples)),
        )
        assert fast.per_server_counts == event.per_server_counts
        assert fast.duration_s == event.duration_s
        assert fast.latency.p99_s == event.latency.p99_s
        assert fast.mean_utilization == pytest.approx(event.mean_utilization)

    @pytest.mark.parametrize("faulted", [False, True], ids=["unfaulted", "crashes"])
    @pytest.mark.parametrize("policy", ["random", "round_robin", "po2", "jsq"])
    def test_runners_leave_inputs_unmodified_and_repeat(self, policy, faulted):
        """``simulate_chunk`` and ``run_events`` never mutate their arrival and
        service lists or the fault schedule, and two fresh runs compare equal."""
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
            collector = LatencyCollector()
            servers, duration, unrouted = run_events(
                arrivals, services, *shape, collector, schedule
            )
            stations = [
                (s.completed, s.lost, s.busy_time_s, s.recovery_times_s)
                for s in servers
            ]
            return (
                cluster_module.simulate_chunk(arrivals, services, *shape),
                collector.stats().samples,
                collector.per_server_counts(),
                stations,
                duration,
                unrouted,
            )

        first, second = fresh_runs(), fresh_runs()
        assert (arrivals, services, schedule) == snapshot
        assert first == second

    def test_auto_engine_selection(self):
        from repro.service.cluster import ClusterSimulation

        assert ClusterSimulation(small_cluster(0.5, policy="random")).resolved_engine() == "fast"
        # jsq/po2 run fast too, on the balanced kernel.
        assert ClusterSimulation(small_cluster(0.5, policy="jsq")).resolved_engine() == "fast"
        assert ClusterSimulation(small_cluster(0.5, policy="po2")).resolved_engine() == "fast"
        assert (
            ClusterSimulation(small_cluster(0.5, policy="jsq"), engine="event").resolved_engine()
            == "event"
        )

    def test_engine_name_validation(self):
        from repro.service.cluster import ClusterSimulation

        # jsq/po2 are fast-capable now; only unknown engine names reject.
        ClusterSimulation(small_cluster(0.5, policy="jsq"), engine="fast")
        with pytest.raises(ValueError, match="engine must be"):
            ClusterSimulation(small_cluster(0.5), engine="warp")

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
        with pytest.raises(ValueError, match="unknown balancer policy"):
            make_balancer("least_connections")

    def test_round_robin_cycles(self):
        balancer = make_balancer("round_robin")
        servers = [object()] * 3  # round robin never reads backlog
        rng = random.Random(0)
        assert [balancer.select(servers, rng) for _ in range(6)] == [0, 1, 2, 0, 1, 2]


class TestSizing:
    @pytest.fixture(scope="class")
    def sizer_setup(self):
        from repro.experiments.service import build_service_chip

        suite = WorkloadSuite((WEB_SEARCH,))
        chip = build_service_chip("Scale-Out (OoO)", suite)
        sizer = ClusterSizer(DatacenterDesign(suite=suite))
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
        from repro.perfmodel.analytic import AnalyticPerformanceModel

        suite = WorkloadSuite((WEB_SEARCH,))
        chip = build_service_chip("Scale-Out (OoO)", suite)
        model = AnalyticPerformanceModel()
        capacity = calibrate_chip(chip, WEB_SEARCH, model)
        estimate = model.estimate(WEB_SEARCH, chip.pod.config())
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
        cheap = WEB_SEARCH.with_overrides(instructions_per_request=1_000_000.0)
        expensive = WEB_SEARCH.with_overrides(instructions_per_request=8_000_000.0)
        assert (
            calibrate_chip(chip, cheap).unit_rate_rps
            > calibrate_chip(chip, expensive).unit_rate_rps
        )
