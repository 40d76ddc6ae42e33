"""Tests for fault injection, dependability metrics, and N+k sizing."""

import contextlib
import json
import math
import os

import pytest

from oracles.noc_routes import shortest_route, weighted_digraph
from oracles.service_events import (
    assert_same_chunk,
    event_engine,
    run_events,
    simulate_chunk_events,
)
from repro.faults import (
    FaultLoadConfig,
    FaultLoadGenerator,
    FaultSchedule,
    LinkFault,
    ServerCrash,
    Straggler,
    apply_link_faults,
    availability_from_downtime,
)
from repro.faults.noc import undirected_links
from repro.obs.tracer import Tracer, use_tracer
from repro.runtime import ResultCache, SweepExecutor
from repro.service.cluster import (
    ClusterConfig,
    ClusterSimulation,
    simulate_chunk,
    simulate_cluster,
)


def faulty_cluster(utilization=0.7, num_servers=4, policy="jsq"):
    parallelism, service_mean_s = 4, 0.002
    return ClusterConfig(
        num_servers=num_servers,
        parallelism=parallelism,
        service_mean_s=service_mean_s,
        offered_qps=utilization * num_servers * parallelism / service_mean_s,
        policy=policy,
    )


def on_engine(engine):
    """Run the cluster on the kernels (``"fast"``) or the event oracle."""
    return event_engine() if engine == "event" else contextlib.nullcontext()


def crash_schedule(config, num_requests=3_000, intensity=1.0, seed=7, **overrides):
    horizon_s = num_requests / config.offered_qps
    load = FaultLoadConfig(crash_intensity=intensity, **overrides)
    return FaultLoadGenerator(load, seed=seed).schedule(config.num_servers, horizon_s)


# ---------------------------------------------------------------- schedules
class TestFaultSchedule:
    def test_same_seed_identical_schedule_and_digest(self):
        config = FaultLoadConfig(crash_intensity=2.0, straggler_intensity=1.0)
        one = FaultLoadGenerator(config, seed=7).schedule(4, 10.0)
        two = FaultLoadGenerator(config, seed=7).schedule(4, 10.0)
        assert one == two
        assert one.digest() == two.digest()

    def test_different_seed_different_schedule(self):
        config = FaultLoadConfig(crash_intensity=2.0)
        one = FaultLoadGenerator(config, seed=7).schedule(4, 10.0)
        two = FaultLoadGenerator(config, seed=8).schedule(4, 10.0)
        assert one.crashes != two.crashes
        assert one.digest() != two.digest()

    def test_digest_is_content_addressed_not_seed_addressed(self):
        crash = ServerCrash(server=0, at_s=1.0, restart_s=2.0)
        built = FaultSchedule(crashes=(crash,), seed=None, horizon_s=10.0)
        relabeled = FaultSchedule(crashes=(crash,), seed=99, horizon_s=10.0)
        assert built.digest() == relabeled.digest()

    def test_adding_a_server_preserves_existing_streams(self):
        config = FaultLoadConfig(crash_intensity=2.0)
        small = FaultLoadGenerator(config, seed=7).schedule(4, 10.0)
        large = FaultLoadGenerator(config, seed=7).schedule(5, 10.0)
        for server in range(4):
            assert [c for c in small.crashes if c.server == server] == [
                c for c in large.crashes if c.server == server
            ]

    def test_zero_config_yields_empty_schedule(self):
        config = FaultLoadConfig()
        assert (config.crash_intensity, config.straggler_intensity) == (0, 0)
        assert (config.num_failed_links, config.num_degraded_links) == (0, 0)
        schedule = FaultLoadGenerator(config, seed=7).schedule(4, 10.0)
        assert schedule.is_empty()
        assert schedule.num_events == 0

    def test_downtime_merges_overlapping_crashes(self):
        schedule = FaultSchedule(
            crashes=(
                ServerCrash(server=0, at_s=1.0, restart_s=3.0),
                ServerCrash(server=0, at_s=2.0, restart_s=4.0),
                ServerCrash(server=1, at_s=0.0, restart_s=1.0),
            )
        )
        assert schedule.downtime_intervals(0) == [(1.0, 4.0)]
        assert schedule.downtime_s(2, 10.0) == pytest.approx(4.0)
        # Downtime past the measured duration is clipped.
        assert schedule.downtime_s(2, 2.0) == pytest.approx(2.0)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            ServerCrash(server=0, at_s=2.0, restart_s=1.0)
        with pytest.raises(ValueError):
            Straggler(server=0, at_s=0.0, until_s=1.0, slowdown=0.5)
        with pytest.raises(ValueError):
            LinkFault(link=(0, 1), severity="melted")
        with pytest.raises(ValueError):
            FaultLoadConfig(mttr_fraction=1.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("build, field", [
        pytest.param(lambda **kw: LinkFault(link=(0, 1), **kw), "latency_factor",
                     id="latency_factor"),
        *(pytest.param(FaultLoadConfig, field, id=field) for field in (
            "link_degradation_factor", "straggler_slowdown",
            "crash_intensity", "straggler_intensity",
        )),
    ])
    def test_non_finite_factors_rejected(self, build, field, value):
        """Regression: NaN passed the ``< 1`` and ``< 0`` checks."""
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            build(**{field: value})

    @pytest.mark.parametrize("build, field, value", [
        pytest.param(build, field, value, id=f"{build.__name__}.{field}={value}")
        for build, field, bad in (
            (ServerCrash, "at_s", -1.0),
            (ServerCrash, "restart_s", 1.0),
            (Straggler, "at_s", -1.0),
            (Straggler, "until_s", 1.0),
            (Straggler, "slowdown", 0.5),
        )
        for value in (math.nan, bad)
    ])
    def test_event_field_named_in_one_line(self, build, field, value):
        """Regression: NaN passed the ``<`` range checks of both events."""
        good = {"server": 0, "at_s": 1.0, "restart_s": 2.0, "until_s": 2.0, "slowdown": 2.0}
        names = build.__dataclass_fields__
        with pytest.raises(ValueError) as excinfo:
            build(**{name: good[name] for name in names if name != field}, **{field: value})
        message = str(excinfo.value)
        assert message.startswith(field)
        assert "\n" not in message

    @pytest.mark.parametrize("build", [ServerCrash, Straggler], ids=lambda b: b.__name__)
    @pytest.mark.parametrize("value", [math.nan, 1.5, True, -1, math.inf], ids=repr)
    def test_server_index_must_be_an_integer(self, build, value):
        """Regression: NaN, 1.5, True and inf passed the ``server < 0`` check."""
        good = {"at_s": 1.0, "restart_s": 2.0, "until_s": 2.0, "slowdown": 2.0}
        names = build.__dataclass_fields__
        with pytest.raises(ValueError, match="^server must be an integer >= 0, got") as excinfo:
            build(server=value, **{name: good[name] for name in names if name != "server"})
        assert "\n" not in str(excinfo.value)

    @pytest.mark.parametrize("field", ["num_failed_links", "num_degraded_links"])
    @pytest.mark.parametrize("value", [math.nan, 1.5, -1, True], ids=repr)
    def test_link_counts_must_be_integers(self, field, value):
        """Regression: NaN and 1.5 passed the ``< 0`` check."""
        with pytest.raises(ValueError, match=f"^{field} must be an integer >= 0, got"):
            FaultLoadConfig(**{field: value})

    def test_availability_from_downtime(self):
        assert availability_from_downtime(4, 10.0, 0.0) == 1.0
        assert availability_from_downtime(4, 10.0, 4.0) == pytest.approx(0.9)


# ---------------------------------------------------------- faulted cluster
class TestFaultedCluster:
    def test_faulted_run_deterministic(self):
        config = faulty_cluster()
        schedule = crash_schedule(config)
        one = simulate_cluster(config, num_requests=3_000, seed=42, faults=schedule)
        two = simulate_cluster(config, num_requests=3_000, seed=42, faults=schedule)
        assert one == two

    @pytest.mark.parametrize("engine", ["fast", "event"])
    def test_empty_schedule_byte_identical_to_unfaulted(self, engine):
        config = faulty_cluster()
        with on_engine(engine):
            base = simulate_cluster(config, num_requests=2_000, seed=42)
            faulted = simulate_cluster(
                config, num_requests=2_000, seed=42, faults=FaultSchedule()
            )
        assert faulted == base
        assert faulted.dependability is None

    @pytest.mark.parametrize("policy", ["random", "round_robin", "po2", "jsq"])
    def test_inert_schedule_does_not_perturb_the_run(self, policy):
        """A non-empty schedule whose every window is a 1.0x straggler takes
        the fault machinery yet computes exactly the un-faulted run: the
        same completions and routing on the kernels and on the event oracle,
        the same clock and per-station busy time on the oracle (it sums both
        runs in one event order), and so the same cluster result (busy time,
        summed in another order by the faulted kernel, only approximately)."""
        config = faulty_cluster(policy=policy)
        horizon_s = 10 * 2_000 / config.offered_qps
        inert = FaultSchedule(
            stragglers=tuple(
                Straggler(server=s, at_s=0.0, until_s=horizon_s, slowdown=1.0)
                for s in range(config.num_servers)
            )
        )
        arrivals, services = (
            array.tolist()
            for array in ClusterSimulation(config, seed=42)._generate_request_arrays(2_000)
        )
        shape = (policy, config.num_servers, config.parallelism, 42 + 2)
        for simulate in (simulate_chunk, simulate_chunk_events):
            assert_same_chunk(
                simulate(arrivals, services, *shape, inert)[:2],
                simulate(arrivals, services, *shape),
            )
        inert_stations, inert_now, *_ = run_events(arrivals, services, *shape, inert)
        stations, now, *_ = run_events(arrivals, services, *shape)
        assert inert_now == now
        assert [s.busy_time_s for s in inert_stations] == [s.busy_time_s for s in stations]
        base = simulate_cluster(config, num_requests=2_000, seed=42)
        faulted = simulate_cluster(config, num_requests=2_000, seed=42, faults=inert)
        assert faulted.dependability is not None
        assert faulted.latency.samples == base.latency.samples
        assert faulted.per_server_counts == base.per_server_counts
        assert faulted.duration_s == base.duration_s
        assert faulted.mean_utilization == pytest.approx(base.mean_utilization)

    def test_crashes_cut_availability_and_goodput(self):
        config = faulty_cluster()
        schedule = crash_schedule(config, intensity=2.0)
        result = simulate_cluster(config, num_requests=3_000, seed=42, faults=schedule)
        dep = result.dependability
        assert dep is not None
        assert 0.0 < dep.availability < 1.0
        assert dep.crashes == len(schedule.crashes)
        assert dep.lost_requests > 0
        assert (
            dep.completed_requests + dep.lost_requests + dep.unrouted_requests
            == dep.offered_requests
        )
        assert dep.goodput_fraction < 1.0
        assert dep.mean_time_to_recover_s > 0.0
        assert dep.max_time_to_recover_s >= dep.mean_time_to_recover_s

    def test_straggler_window_inflates_latency(self):
        config = faulty_cluster(policy="random")
        horizon_s = 3_000 / config.offered_qps
        slow = FaultSchedule(
            stragglers=tuple(
                Straggler(server=s, at_s=0.0, until_s=horizon_s, slowdown=8.0)
                for s in range(config.num_servers)
            )
        )
        base = simulate_cluster(config, num_requests=3_000, seed=42)
        slowed = simulate_cluster(config, num_requests=3_000, seed=42, faults=slow)
        assert slowed.latency.mean_s > base.latency.mean_s

    def test_fast_engine_accepts_faults(self):
        config = faulty_cluster(policy="random")
        schedule = crash_schedule(config)
        simulation = ClusterSimulation(config, faults=schedule)
        assert simulation.faults is schedule
        assert simulation.run(3_000).dependability is not None
        assert ClusterSimulation(config, faults=FaultSchedule()).faults is None

    def test_schedule_naming_a_missing_server_rejected(self):
        # Regression: crashes on servers >= num_servers used to be skipped and
        # such stragglers dropped, so a 16-server schedule silently ran on 8
        # servers with part of its fault load missing.
        config = faulty_cluster(num_servers=8)
        wide = crash_schedule(faulty_cluster(num_servers=16), intensity=2.0)
        assert any(crash.server >= 8 for crash in wide.crashes)
        with pytest.raises(ValueError, match=r"faults .* 0\.\.7"):
            ClusterSimulation(config, faults=wide)
        straggler = FaultSchedule(
            stragglers=(Straggler(server=8, at_s=0.0, until_s=1.0, slowdown=2.0),)
        )
        with pytest.raises(ValueError, match=r"faults .* 0\.\.7"):
            ClusterSimulation(config, faults=straggler)

    @pytest.mark.parametrize("engine", ["fast", "event"])
    def test_overlapping_crash_windows_keep_the_server_down(self, engine):
        # Regression: the first restart of two overlapping crash windows
        # brought the server back while the second window was still open, so
        # it served requests inside the downtime that availability counted.
        config = faulty_cluster(num_servers=2, policy="round_robin")
        arrivals, services = (
            array.tolist()
            for array in ClusterSimulation(config, seed=42)._generate_request_arrays(3_000)
        )
        horizon_s = arrivals[-1]
        down_from, down_until = 0.1 * horizon_s, 0.6 * horizon_s
        schedule = FaultSchedule(
            crashes=(
                ServerCrash(server=0, at_s=down_from, restart_s=0.4 * horizon_s),
                ServerCrash(server=0, at_s=0.2 * horizon_s, restart_s=down_until),
            )
        )
        shape = ("round_robin", 2, config.parallelism, 42 + 2)  # the cluster's rseed
        simulate = simulate_chunk if engine == "fast" else simulate_chunk_events
        completions, assignment, _ = simulate(arrivals, services, *shape, schedule)
        served = [
            index
            for index, server in enumerate(assignment)
            if server == 0 and not math.isnan(completions[index])
        ]
        assert served
        assert not [i for i in served if down_from <= arrivals[i] < down_until]
        with on_engine(engine):
            result = ClusterSimulation(config, seed=42, faults=schedule).run(3_000)
        # The accounting charges the merged window the engines now honour.
        assert schedule.downtime_intervals(0) == [(down_from, down_until)]
        assert result.dependability.downtime_s == down_until - down_from

    def test_fault_counters_traced(self):
        config = faulty_cluster()
        schedule = crash_schedule(config, intensity=2.0)
        tracer = Tracer()
        with use_tracer(tracer):
            simulate_cluster(config, num_requests=3_000, seed=42, faults=schedule)
        counters = tracer.counters()
        assert counters["faults.server_crash"] == len(schedule.crashes)
        assert counters["faults.server_restart"] >= 1
        assert counters.get("faults.requests_lost", 0) > 0


# -------------------------------------------------------------- fault sweeps
class TestFaultSweeps:
    SWEEP_KWARGS = dict(
        crash_intensities=(0.0, 1.0, 2.0),
        num_servers=4,
        num_requests=2_000,
    )

    def test_serial_and_parallel_sweeps_identical(self):
        from repro.experiments.faults import service_fault_sweep

        serial = service_fault_sweep(
            executor=SweepExecutor(mode="serial"), **self.SWEEP_KWARGS
        )
        parallel = service_fault_sweep(
            executor=SweepExecutor(mode="process", max_workers=2), **self.SWEEP_KWARGS
        )
        assert json.dumps(serial, sort_keys=True) == json.dumps(parallel, sort_keys=True)

    def test_sweep_payload_shape_and_faults_block(self):
        from repro.experiments.faults import service_fault_sweep

        payload = service_fault_sweep(
            executor=SweepExecutor(mode="serial"), **self.SWEEP_KWARGS
        )
        rows = payload["sweep"]
        assert [row["crash_intensity"] for row in rows] == [0.0, 1.0, 2.0]
        assert rows[0]["availability"] == 1.0
        assert rows[0]["fault_events"] == 0
        assert rows[-1]["availability"] < 1.0
        block = payload["faults"]
        assert block["schedules"] == 3
        assert len(block["digest"]) == 64

    def test_envelope_provenance_carries_fault_identity(self):
        from repro.experiments.registry import run_experiment

        result = run_experiment(
            "fault_service_sweep", use_cache=False,
            executor=SweepExecutor(mode="serial"), **self.SWEEP_KWARGS,
        )
        assert result.provenance["fault_seed"] == 7
        assert result.provenance["fault_schedule_digest"] == result.data["faults"]["digest"]
        # The envelope's row view is the sweep list itself.
        assert result.rows == result.data["sweep"]

    def test_unfaulted_experiments_have_no_fault_provenance(self):
        from repro.experiments.registry import run_experiment

        result = run_experiment("table_4_1", use_cache=False)
        assert "fault_seed" not in result.provenance
        assert "fault_schedule_digest" not in result.provenance

    @pytest.mark.parametrize("value", [
        0, 0.999, -math.inf, 1e19, False, None, "4",
    ], ids=repr)
    def test_noc_fault_sweep_rejects_bad_degradation_factor(self, value):
        """The check runs before any schedule or simulation: ``1e19`` cycles
        overflow the kernel's int64 latency table, and a bool or string is
        not a factor even where it compares like one."""
        from repro.experiments.faults import noc_fault_sweep

        with pytest.raises(ValueError, match="^degradation_factor must be a finite number >= 1 "):
            noc_fault_sweep(degradation_factor=value, executor=SweepExecutor(mode="serial"))

    def test_noc_fault_sweep_accepts_integer_factor_one(self):
        """The lower bound is inclusive: a factor of 1 degrades nothing."""
        from repro.experiments.faults import noc_fault_sweep

        payload = noc_fault_sweep(
            failed_links=(0, 1), degraded_links=2, degradation_factor=1,
            duration_cycles=500, executor=SweepExecutor(mode="serial"),
        )
        assert [row["degraded_links"] for row in payload["sweep"]] == [0, 2]

    def test_noc_fault_sweep_zero_point_matches_healthy_study(self):
        from repro.experiments.faults import noc_fault_sweep

        payload = noc_fault_sweep(
            failed_links=(0, 4), duration_cycles=2_000,
            executor=SweepExecutor(mode="serial"),
        )
        healthy, faulted = payload["sweep"]
        assert healthy["failed_links"] == 0
        assert healthy["fault_events"] == 0
        assert faulted["request_latency_cycles"] > healthy["request_latency_cycles"]
        assert faulted["system_ipc"] < healthy["system_ipc"]


# ----------------------------------------------------------------- NoC faults
class TestNocLinkFaults:
    def _mesh(self):
        from repro.noc.simulation import _cached_topology

        return _cached_topology("mesh", 64)

    def test_empty_fault_list_returns_same_object(self):
        mesh = self._mesh()
        assert apply_link_faults(mesh, ()) is mesh

    def test_down_link_removed_and_original_untouched(self):
        mesh = self._mesh()
        edges_before = mesh.num_links
        link = undirected_links(mesh)[0]
        faulted = apply_link_faults(mesh, (LinkFault(link=link, severity="down"),))
        assert mesh.num_links == edges_before
        a, b = link
        assert b in mesh.successors[a] and a in mesh.successors[b]
        assert faulted.num_links == edges_before - 2
        assert b not in faulted.successors[a] and a not in faulted.successors[b]
        assert faulted.name.endswith("+faults")
        # The faulted topology routes by weighted shortest path around the hole.
        graph = weighted_digraph(faulted)
        for source in faulted.core_nodes:
            for destination in faulted.llc_nodes:
                assert faulted.route(source, destination) == shortest_route(
                    graph, source, destination
                )

    def test_degraded_link_keeps_edges_but_slows_them(self):
        mesh = self._mesh()
        a, b = undirected_links(mesh)[0]
        faulted = apply_link_faults(
            mesh, (LinkFault(link=(a, b), severity="degraded", latency_factor=4.0),)
        )
        healthy_latency = mesh.link(a, b).latency_cycles
        assert faulted.link(a, b).latency_cycles == 4 * healthy_latency

    @pytest.mark.parametrize("factor", [1e30, 2.0**63], ids=repr)
    def test_latency_past_int64_rejected(self, factor):
        """Regression: 1e30 reached the kernel's latency table and died there
        with an ``OverflowError``.  The mesh's links take 1 cycle, so 2**63
        cycles is one past int64."""
        with pytest.raises(ValueError, match=r"^latency_factor .* past the int64") as excinfo:
            apply_link_faults(self._mesh(), (LinkFault(link=(0, 1), latency_factor=factor),))
        assert "\n" not in str(excinfo.value)

    def test_latency_at_int64_edge_compiles(self):
        """2**63 - 1024 is the largest float below 2**63: it fits."""
        from repro.noc.fastpath import CompiledTopology

        factor = 2.0**63 - 1024
        faulted = apply_link_faults(self._mesh(), (LinkFault(link=(0, 1), latency_factor=factor),))
        assert faulted.link(0, 1).latency_cycles == 2**63 - 1024
        assert CompiledTopology(faulted).link_latency.max() == 2**63 - 1024

    def test_partitioning_removal_degrades_instead(self):
        import networkx as nx

        from repro.noc.simulation import _cached_topology

        tree = _cached_topology("nocout", 64)
        faults = tuple(
            LinkFault(link=link, severity="down") for link in undirected_links(tree)
        )
        faulted = apply_link_faults(tree, faults)
        # Taking every link "down" must not partition the network: removals
        # that would cut a core off from an LLC bank fall back to degradation,
        # so cores and LLCs stay mutually reachable (some edges survive).
        assert faulted.num_links > 0
        required = set(faulted.core_nodes) | set(faulted.llc_nodes)
        assert any(
            required <= component
            for component in nx.strongly_connected_components(weighted_digraph(faulted))
        )

    def test_generator_samples_links_deterministically(self):
        mesh = self._mesh()
        config = FaultLoadConfig(num_failed_links=2, num_degraded_links=3)
        links = undirected_links(mesh)
        one = FaultLoadGenerator(config, seed=7).schedule(1, 1.0, links=links)
        two = FaultLoadGenerator(config, seed=7).schedule(1, 1.0, links=links)
        assert one.link_faults == two.link_faults
        severities = [fault.severity for fault in one.link_faults]
        assert severities.count("down") == 2
        assert severities.count("degraded") == 3


# ----------------------------------------------------------------- N+k sizing
class TestNkSizing:
    def _sizer_and_chip(self):
        from repro.experiments.service import build_service_chip
        from repro.service.sizing import ClusterSizer
        from repro.tco.datacenter import DatacenterDesign
        from repro.workloads.suite import default_suite

        suite = default_suite()
        chip = build_service_chip("Scale-Out (OoO)", suite)
        return ClusterSizer(DatacenterDesign(), memory_gb=64), chip, suite

    def test_k0_reduces_to_base_sizing(self):
        sizer, chip, suite = self._sizer_and_chip()
        workload = suite["Web Search"]
        base = sizer.size(chip, workload, target_qps=1e6, sla_p99_s=0.025)
        redundant = sizer.size_n_plus_k(
            chip, workload, target_qps=1e6, sla_p99_s=0.025, k=0
        )
        assert redundant.servers == base.servers
        assert redundant.monthly_tco_usd == pytest.approx(base.monthly_tco_usd)
        assert redundant.p99_s == pytest.approx(base.p99_s)
        assert redundant.redundancy_overhead == pytest.approx(0.0)

    def test_tco_and_availability_monotone_in_k(self):
        sizer, chip, suite = self._sizer_and_chip()
        workload = suite["Web Search"]
        results = [
            sizer.size_n_plus_k(chip, workload, target_qps=1e6, sla_p99_s=0.025, k=k)
            for k in (0, 1, 2, 4)
        ]
        tcos = [r.monthly_tco_usd for r in results]
        availabilities = [r.cluster_availability for r in results]
        assert tcos == sorted(tcos)
        assert availabilities == sorted(availabilities)
        assert all(r.servers == r.base_servers + r.k for r in results)
        # Degraded operation (k servers lost) still shows the base p99.
        assert all(
            r.degraded_p99_s == pytest.approx(results[0].p99_s) for r in results
        )

    def test_cluster_availability_bounds(self):
        from repro.service.sizing import cluster_availability

        assert cluster_availability(4, 4, 0.9) == pytest.approx(1.0)
        assert cluster_availability(4, 0, 0.9) == pytest.approx(0.9**4)
        assert cluster_availability(10, 2, 1.0) == pytest.approx(1.0)


# ------------------------------------------------------------ executor retry
def _fails_on_three(value, log_path):
    with open(log_path, "a", encoding="utf-8") as handle:
        handle.write(f"{value}\n")
    if value == 3:
        raise ValueError("point three always fails")
    return value * 10


def _dies_in_worker(value, parent_pid):
    if os.getpid() != parent_pid:
        os._exit(1)
    return value * 10


class TestExecutorFailures:
    @pytest.mark.parametrize("mode", ["serial", "process"])
    def test_point_error_propagates_unchanged_from_one_run(self, mode, tmp_path):
        log = tmp_path / "runs.txt"
        executor = SweepExecutor(mode=mode, max_workers=2)
        with pytest.raises(ValueError, match="^point three always fails$") as excinfo:
            executor.map(_fails_on_three, [(i, str(log)) for i in range(6)])
        assert type(excinfo.value) is ValueError
        runs = log.read_text().split()
        assert runs.count("3") == 1

    def test_dead_worker_chunks_rerun_in_parent(self):
        executor = SweepExecutor(mode="process", max_workers=2)
        tracer = Tracer()
        with use_tracer(tracer):
            results = executor.map(_dies_in_worker, [(i, os.getpid()) for i in range(6)])
        assert results == [i * 10 for i in range(6)]
        assert tracer.counters()["executor.chunk_retries"] >= 1
        retries = tracer.find_spans(name="executor.chunk_retry")
        assert len(retries) == tracer.counters()["executor.chunk_retries"]

    def test_dead_worker_rerun_untraced(self):
        executor = SweepExecutor(mode="process", max_workers=2)
        results = executor.map(_dies_in_worker, [(i, os.getpid()) for i in range(6)])
        assert results == [i * 10 for i in range(6)]


# ------------------------------------------------------------- corrupt cache
class TestCorruptCacheEntries:
    def test_corrupt_json_degrades_to_miss(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        cache.put("key", {"rows": [1, 2]}, category="experiment")
        path = os.path.join(str(tmp_path), "key.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write('{"payload": [truncated')
        fresh = ResultCache(cache_dir=str(tmp_path))
        tracer = Tracer()
        with use_tracer(tracer):
            assert fresh.get("key", category="experiment") is None
        stats = fresh.stats()
        assert stats["corrupt"] == 1
        assert stats["misses"] == 1
        assert stats["categories"]["experiment"]["corrupt"] == 1
        assert tracer.counters()["cache.experiment.corrupt"] == 1

    def test_corrupt_pickle_degrades_to_miss(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        with open(os.path.join(str(tmp_path), "key.pkl"), "wb") as handle:
            handle.write(b"\x80\x05 not a pickle")
        assert cache.get("key") is None
        assert cache.stats()["corrupt"] == 1

    def test_healthy_entries_unaffected(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        cache.put("key", {"rows": [1, 2]})
        fresh = ResultCache(cache_dir=str(tmp_path))
        assert fresh.get("key") == {"rows": [1, 2]}
        assert fresh.stats()["corrupt"] == 0
