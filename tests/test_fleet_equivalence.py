"""Property-based equivalence suite for the fleet and fast-engine kernels.

The determinism contract under test: the vectorized fast kernels and the
discrete-event oracle (``tests/oracles/service_events.py``), fed identical
generated request arrays, produce **bit-identical** results -- not
approximately equal ones.  The oracle is compared chunk by chunk and, patched
into the package, on whole cluster runs, fleet days and catalog studies.  Randomized
(but seeded, via hypothesis) configurations sweep cluster policies, arrival
processes, parallelism, and fleet shapes; any counterexample shrinks to a
minimal reproducing configuration.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.service_events import (
    assert_matches_event_run,
    assert_same_chunk,
    event_engine,
    simulate_chunk_events,
)
from repro.fleet import (
    Datacenter,
    FleetConfig,
    FleetSimulation,
    LoadShape,
    Region,
    RequestClass,
)
from repro.runtime.executor import SweepExecutor
from repro.service.cluster import (
    ClusterConfig,
    ClusterSimulation,
    simulate_chunk,
    simulate_cluster,
)

# ---------------------------------------------------------------- strategies

cluster_configs = st.fixed_dictionaries(
    {
        "policy": st.sampled_from(["jsq", "po2", "random", "round_robin"]),
        "num_servers": st.integers(min_value=1, max_value=6),
        "parallelism": st.integers(min_value=1, max_value=3),
        "utilization": st.floats(min_value=0.2, max_value=1.15),
        "arrival": st.sampled_from(["poisson", "mmpp"]),
        "seed": st.integers(min_value=0, max_value=2**20),
    }
)

fleet_shapes = st.fixed_dictionaries(
    {
        "routing": st.sampled_from(["nearest", "latency_weighted", "spillover"]),
        "policy": st.sampled_from(["jsq", "po2", "random", "round_robin"]),
        "arrival": st.sampled_from(["poisson", "mmpp"]),
        "num_epochs": st.integers(min_value=1, max_value=3),
        "offered_qps": st.floats(min_value=50.0, max_value=400.0),
        "seed": st.integers(min_value=0, max_value=2**20),
    }
)


def _cluster_config(params) -> ClusterConfig:
    num_servers = params["num_servers"]
    parallelism = params["parallelism"]
    service_mean_s = 0.01
    capacity = num_servers * parallelism / service_mean_s
    return ClusterConfig(
        num_servers=num_servers,
        parallelism=parallelism,
        service_mean_s=service_mean_s,
        offered_qps=params["utilization"] * capacity,
        policy=params["policy"],
        arrival=params["arrival"],
        arrival_kwargs=(
            {"burstiness": 3.0, "burst_fraction": 0.25, "mean_phase_s": 0.05}
            if params["arrival"] == "mmpp"
            else {}
        ),
    )


def _fleet_config(params) -> FleetConfig:
    datacenters = (
        Datacenter(
            "east", Region("east", 0.0, 0.0), num_servers=3, parallelism=2,
            service_mean_s=0.01, policy=params["policy"],
        ),
        Datacenter(
            "west", Region("west", 1.0, 0.5), num_servers=2, parallelism=1,
            service_mean_s=0.012, policy=params["policy"],
        ),
    )
    return FleetConfig(
        datacenters=datacenters,
        offered_qps=params["offered_qps"],
        routing=params["routing"],
        load_shape=LoadShape((1.4, 0.6, 1.0)[: params["num_epochs"]], epoch_s=3.0),
        arrival=params["arrival"],
        arrival_kwargs=(
            {"burstiness": 4.0, "burst_fraction": 0.2, "mean_phase_s": 1.0}
            if params["arrival"] == "mmpp"
            else {}
        ),
        origin_weights=(0.7, 0.3),
    )


def _assert_fleet_identical(first, second) -> None:
    """Bitwise equality of two fleet results (samples, histograms, counts)."""
    assert first.total_requests == second.total_requests
    assert first.network_sum_s == second.network_sum_s
    for name in first.class_samples:
        assert np.array_equal(
            np.array(first.class_samples[name]),
            np.array(second.class_samples[name]),
        )
    for name, histogram in first.datacenter_histograms.items():
        other = second.datacenter_histograms[name]
        assert np.array_equal(histogram.counts, other.counts)
        assert histogram.sum_s == other.sum_s
        assert histogram.max_s == other.max_s
    for mine, theirs in zip(first.epoch_stats, second.epoch_stats):
        assert mine.requests == theirs.requests
        assert mine.busy_s == theirs.busy_s
        assert mine.servers == theirs.servers


# ------------------------------------------------------------------ cluster


class TestClusterEngineEquivalence:
    """Fast kernels == event oracle on randomized cluster configurations."""

    @given(params=cluster_configs)
    @settings(max_examples=25, deadline=None)
    def test_fast_matches_event_bitwise(self, params):
        """Completions and routing, and so sorted latencies, routing counts,
        and duration, are bit-identical across engines for every policy and
        arrival process."""
        config = _cluster_config(params)
        arrivals, services = (
            array.tolist()
            for array in ClusterSimulation(
                config, seed=params["seed"]
            )._generate_request_arrays(400)
        )
        shape = (config.policy, config.num_servers, config.parallelism, params["seed"] + 2)
        assert_same_chunk(
            simulate_chunk(arrivals, services, *shape),
            simulate_chunk_events(arrivals, services, *shape),
        )
        fast = simulate_cluster(config, num_requests=400, seed=params["seed"])
        with event_engine():
            event = simulate_cluster(config, num_requests=400, seed=params["seed"])
        assert np.array_equal(
            np.sort(np.array(fast.latency.samples)),
            np.sort(np.array(event.latency.samples)),
        )
        assert fast.per_server_counts == event.per_server_counts
        assert fast.duration_s == event.duration_s
        assert_matches_event_run(fast, 400, params["seed"])


# -------------------------------------------------------------------- fleet


class TestFleetEngineEquivalence:
    """Fleet days replay bit-identically on the fast kernels and the oracle."""

    @given(params=fleet_shapes)
    @settings(max_examples=15, deadline=None)
    def test_fast_matches_event_bitwise(self, params):
        """Per-class samples, per-site histograms, and per-epoch cells agree
        bitwise between the two engines on randomized fleet days."""
        config = _fleet_config(params)
        fast = FleetSimulation(config, seed=params["seed"], collect_samples=True).run()
        with event_engine():
            event = FleetSimulation(config, seed=params["seed"], collect_samples=True).run()
        _assert_fleet_identical(fast, event)

    def test_day_on_both_chunk_paths_matches_event_bitwise(self):
        """A JSQ day whose quiet chunks never fill every unit (and skip the
        kernel) while its busy ones queue: the oracle, which computes every
        chunk, agrees bit for bit, and the counter names the skipped ones."""
        from repro.obs.tracer import Tracer, set_tracer

        config = _fleet_config(
            {
                "routing": "nearest",
                "policy": "jsq",
                "arrival": "poisson",
                "num_epochs": 3,
                "offered_qps": 100.0,
            }
        )
        tracer = Tracer()
        set_tracer(tracer)
        try:
            fast = FleetSimulation(config, seed=5, collect_samples=True).run()
        finally:
            set_tracer(None)
        skipped = tracer.counters()["fleet.chunks_on_arrival"]
        assert 0 < skipped < sum(1 for stats in fast.epoch_stats if stats.requests)
        with event_engine():
            event = FleetSimulation(config, seed=5, collect_samples=True).run()
        _assert_fleet_identical(fast, event)

    @given(
        seed=st.integers(min_value=0, max_value=2**20),
        epochs=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=10, deadline=None)
    def test_empty_shape_is_stationary_baseline(self, seed, epochs):
        """The empty LoadShape and an explicit all-ones flat trace produce
        byte-identical days: modulation composes onto, never perturbs."""
        datacenters = (
            Datacenter(
                "solo", Region("solo"), num_servers=3, parallelism=2,
                service_mean_s=0.01, policy="jsq",
            ),
        )
        stationary = FleetConfig(
            datacenters=datacenters, offered_qps=300.0, num_epochs=epochs,
            load_shape=LoadShape((), epoch_s=2.0),
        )
        flat = FleetConfig(
            datacenters=datacenters, offered_qps=300.0,
            load_shape=LoadShape.flat(epochs, epoch_s=2.0),
        )
        first = FleetSimulation(stationary, seed=seed, collect_samples=True).run()
        second = FleetSimulation(flat, seed=seed, collect_samples=True).run()
        _assert_fleet_identical(first, second)

    def test_identical_seeds_identical_days(self):
        """Re-running the same configuration and seed reproduces the day."""
        config = _fleet_config(
            {
                "routing": "spillover",
                "policy": "po2",
                "arrival": "mmpp",
                "num_epochs": 3,
                "offered_qps": 250.0,
                "seed": 0,
            }
        )
        first = FleetSimulation(config, seed=9, collect_samples=True).run()
        second = FleetSimulation(config, seed=9, collect_samples=True).run()
        _assert_fleet_identical(first, second)


# ------------------------------------------------------- executor invariance


def _fleet_day_requests(seed: int) -> int:
    """One tiny fleet day's request count (module-level: picklable)."""
    config = FleetConfig(
        datacenters=(
            Datacenter(
                "east", Region("east"), num_servers=2, parallelism=2,
                service_mean_s=0.01, policy="jsq",
            ),
        ),
        offered_qps=200.0,
        load_shape=LoadShape((1.5, 0.5), epoch_s=2.0),
    )
    return FleetSimulation(config, seed=seed).run().total_requests


class TestExecutorInvariance:
    """Serial and process-parallel sweeps produce identical fleet results."""

    def test_serial_equals_parallel(self):
        """Fleet days are pure functions of (config, seed): fan-out across
        processes must not change a single result."""
        points = [(seed,) for seed in range(6)]
        serial = SweepExecutor(mode="serial").map(_fleet_day_requests, points)
        parallel = SweepExecutor(mode="process", max_workers=3).map(
            _fleet_day_requests, points
        )
        assert serial == parallel


# ----------------------------------------------------------- study-level


class TestStudyEquivalence:
    """Catalog studies give the same rows with the oracle patched in."""

    def test_diurnal_study_rows_match_event_engine(self):
        """A small diurnal-day study produces identical rows on both engines
        (rows only carry histogram-derived and count statistics)."""
        from repro.experiments.fleet import fleet_diurnal_day

        kwargs = dict(offered_qps=400.0, epoch_s=0.5)
        fast = fleet_diurnal_day(**kwargs)
        with event_engine():
            assert fleet_diurnal_day(**kwargs) == fast

    def test_latency_sweep_rows_match_event_engine(self):
        """A small load-latency sweep, on the serial executor so the patch
        reaches every point, produces identical rows on both engines."""
        from repro.experiments.service import service_latency_sweep

        kwargs = dict(
            utilizations=(0.5, 0.95), policy="jsq", num_requests=2_000,
            executor=SweepExecutor(mode="serial"),
        )
        fast = service_latency_sweep(**kwargs)
        with event_engine():
            assert service_latency_sweep(**kwargs) == fast
