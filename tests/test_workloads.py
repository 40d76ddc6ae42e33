"""Tests for workload profiles, miss-ratio curves, the suite, and trace generation."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import (
    CLOUDSUITE,
    CaptureCurve,
    MissRatioCurve,
    SyntheticTraceGenerator,
    WorkloadSuite,
    default_suite,
    get_workload,
    workload_names,
)
from repro.workloads.cloudsuite import MEDIA_STREAMING, WEB_SEARCH
from repro.workloads.profile import CoreBehavior, WorkloadProfile
from repro.workloads.traces import LINE_BYTES


class TestCaptureCurve:
    def test_bounds(self):
        curve = CaptureCurve(half_capture_mb=2.0)
        assert curve.capture_fraction(0.0) == 0.0
        assert 0.49 < curve.capture_fraction(2.0) < 0.51
        assert curve.capture_fraction(64.0) > 0.95

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CaptureCurve(half_capture_mb=0)
        with pytest.raises(ValueError):
            CaptureCurve(half_capture_mb=1.0, exponent=0)
        with pytest.raises(ValueError):
            CaptureCurve(half_capture_mb=1.0).capture_fraction(-1.0)

    @given(
        st.floats(min_value=0.1, max_value=16.0),
        st.floats(min_value=0.5, max_value=3.0),
        st.floats(min_value=0.0, max_value=64.0),
        st.floats(min_value=0.01, max_value=8.0),
    )
    def test_monotonic_in_capacity(self, half, exponent, capacity, delta):
        curve = CaptureCurve(half_capture_mb=half, exponent=exponent)
        assert curve.capture_fraction(capacity + delta) >= curve.capture_fraction(capacity)

    @given(st.floats(min_value=0.1, max_value=16.0), st.floats(min_value=0.0, max_value=128.0))
    def test_fraction_within_unit_interval(self, half, capacity):
        fraction = CaptureCurve(half_capture_mb=half).capture_fraction(capacity)
        assert 0.0 <= fraction <= 1.0


class TestMissRatioCurve:
    def _curve(self) -> MissRatioCurve:
        return MissRatioCurve(
            floor_mpki=3.0,
            capturable_mpki=6.0,
            capture=CaptureCurve(half_capture_mb=2.0),
            instruction_mpki=5.0,
            instruction_capture=CaptureCurve(half_capture_mb=0.5, exponent=2.0),
        )

    def test_floor_reached_at_large_capacity(self):
        curve = self._curve()
        assert curve.mpki(1024.0) == pytest.approx(3.0, abs=0.2)

    def test_mpki_decreases_with_capacity(self):
        curve = self._curve()
        values = [curve.mpki(c) for c in (0.5, 1, 2, 4, 8, 16, 32)]
        assert values == sorted(values, reverse=True)

    def test_sharing_dilution_increases_misses(self):
        curve = self._curve()
        assert curve.mpki(4.0, cores=64) > curve.mpki(4.0, cores=1)

    def test_instruction_component_separate(self):
        curve = self._curve()
        total = curve.mpki(1.0)
        assert total == pytest.approx(curve.data_mpki(1.0) + curve.instruction_llc_mpki(1.0))

    def test_instruction_capture_required(self):
        with pytest.raises(ValueError):
            MissRatioCurve(
                floor_mpki=1.0,
                capturable_mpki=1.0,
                capture=CaptureCurve(half_capture_mb=1.0),
                instruction_mpki=2.0,
                instruction_capture=None,
            )

    def test_miss_ratio_bounded(self):
        curve = self._curve()
        assert 0.0 < curve.miss_ratio(1.0, llc_apki=50.0) <= 1.0

    def test_capacity_for_mpki_inverts(self):
        curve = self._curve()
        capacity = curve.capacity_for_mpki(5.0)
        assert curve.data_mpki(capacity) == pytest.approx(5.0, rel=0.02)
        assert curve.capacity_for_mpki(2.0) == math.inf
        assert curve.capacity_for_mpki(100.0) == 0.0

    @given(st.floats(min_value=0.25, max_value=64.0), st.integers(min_value=1, max_value=256))
    def test_mpki_always_at_least_floor(self, capacity, cores):
        curve = self._curve()
        assert curve.mpki(capacity, cores) >= curve.floor_mpki - 1e-9


class TestCloudSuiteProfiles:
    def test_seven_workloads(self):
        assert len(CLOUDSUITE) == 7
        assert len(workload_names()) == 7

    def test_lookup_by_name(self):
        assert get_workload("web search") is WEB_SEARCH
        assert get_workload("Media Streaming") is MEDIA_STREAMING
        with pytest.raises(KeyError):
            get_workload("spec cpu")

    @pytest.mark.parametrize("workload", CLOUDSUITE, ids=lambda w: w.name)
    def test_profile_sanity(self, workload):
        assert 0 < workload.snoop_fraction < 0.10
        assert workload.l1i_mpki > 0 and workload.l1d_mpki > 0
        assert workload.max_cores in (16, 32, 64)
        for core in ("conventional", "ooo", "inorder"):
            behavior = workload.behavior(core)
            assert behavior.base_cpi > 0
            assert behavior.data_mlp >= 1.0

    @pytest.mark.parametrize("workload", CLOUDSUITE, ids=lambda w: w.name)
    def test_llc_mpki_monotone_in_capacity(self, workload):
        values = [workload.llc_mpki(c, cores=16) for c in (1, 2, 4, 8, 16, 32)]
        assert values == sorted(values, reverse=True)

    def test_average_snoop_fraction_matches_paper(self):
        # Figure 4.3: on average ~2.7 of 100 LLC accesses trigger a snoop.
        mean = sum(w.snoop_fraction for w in CLOUDSUITE) / len(CLOUDSUITE)
        assert 0.015 < mean < 0.04

    def test_scalability_limits_match_table_3_1(self):
        assert get_workload("Media Streaming").max_cores == 16
        assert get_workload("Web Frontend").max_cores == 32
        assert get_workload("Web Search").max_cores == 32
        assert get_workload("Data Serving").max_cores == 64

    def test_conventional_core_filters_more_l1_misses(self):
        workload = get_workload("Data Serving")
        conv_i, conv_d = workload.l1_mpki("conventional")
        ooo_i, ooo_d = workload.l1_mpki("ooo")
        assert conv_i < ooo_i and conv_d < ooo_d

    def test_offchip_traffic_positive_and_decreasing_with_capacity(self):
        workload = get_workload("MapReduce-C")
        small = workload.offchip_bytes_per_instruction(1.0)
        large = workload.offchip_bytes_per_instruction(16.0)
        assert small > large > 0

    def test_software_scaling_factor(self):
        media = get_workload("Media Streaming")
        assert media.software_scaling_factor(16) == pytest.approx(1.0)
        assert media.software_scaling_factor(64) == pytest.approx(0.25)
        sat = get_workload("SAT Solver")
        assert sat.software_scaling_factor(64) < 1.0

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            WorkloadProfile(
                name="bad",
                l1i_mpki=-1,
                l1d_mpki=1,
                llc_curve=CLOUDSUITE[0].llc_curve,
                core_behavior=CLOUDSUITE[0].core_behavior,
                snoop_fraction=0.01,
            )
        with pytest.raises(ValueError):
            CoreBehavior(base_cpi=0.5, l1_miss_scale=1.0, data_mlp=0.5, memory_mlp=1.0)

    def test_with_overrides(self):
        modified = WEB_SEARCH.with_overrides(max_cores=16)
        assert modified.max_cores == 16
        assert WEB_SEARCH.max_cores == 32


class TestWorkloadSuite:
    def test_default_suite_contents(self):
        suite = default_suite()
        assert len(suite) == 7
        assert suite["Web Search"] is WEB_SEARCH
        assert suite[0].name == "Data Serving"

    def test_filtering(self):
        suite = default_suite()
        assert len(suite.scalable_to(64)) == 4
        assert len(suite.scalable_to(32)) == 6
        assert all(w.latency_sensitive for w in suite.latency_sensitive())

    def test_aggregations(self):
        suite = default_suite()
        mean = suite.mean(lambda w: w.snoop_fraction)
        geomean = suite.geomean(lambda w: w.l1i_mpki)
        assert mean > 0 and geomean > 0

    def test_geomean_rejects_non_positive_values_with_context(self):
        suite = default_suite()
        with pytest.raises(ValueError) as excinfo:
            suite.geomean(lambda w: -1.0 if w.name == "Web Search" else 1.0)
        message = str(excinfo.value)
        assert "positive" in message
        assert "Web Search" in message  # names the offending workload
        with pytest.raises(ValueError):
            suite.geomean(lambda w: 0.0)

    def test_per_workload_keys(self):
        suite = default_suite()
        table = suite.per_workload(lambda w: w.max_cores)
        assert set(table) == set(suite.names())

    def test_invalid_suites(self):
        with pytest.raises(ValueError):
            WorkloadSuite(())
        with pytest.raises(ValueError):
            WorkloadSuite((WEB_SEARCH, WEB_SEARCH))
        with pytest.raises(KeyError):
            default_suite()["unknown"]


class TestSyntheticTraces:
    def test_deterministic_given_seed(self):
        generator = SyntheticTraceGenerator(WEB_SEARCH, cores=4, seed=3)
        again = SyntheticTraceGenerator(WEB_SEARCH, cores=4, seed=3)
        assert generator.events_for_core(1, 2000) == again.events_for_core(1, 2000)

    def test_different_seeds_differ(self):
        a = SyntheticTraceGenerator(WEB_SEARCH, cores=2, seed=1).events_for_core(0, 2000)
        b = SyntheticTraceGenerator(WEB_SEARCH, cores=2, seed=2).events_for_core(0, 2000)
        assert a != b

    def test_event_rate_matches_profile(self):
        generator = SyntheticTraceGenerator(WEB_SEARCH, cores=1, seed=1)
        events = generator.events_for_core(0, 50_000)
        expected = generator.expected_llc_accesses_per_instruction() * 50_000
        assert len(events) == pytest.approx(expected, rel=0.05)

    def test_addresses_line_aligned(self):
        generator = SyntheticTraceGenerator(MEDIA_STREAMING, cores=2, seed=9)
        for event in generator.events_for_core(0, 3000):
            assert event.address % LINE_BYTES == 0
            assert event.instruction_gap >= 1

    def test_instruction_events_are_reads(self):
        generator = SyntheticTraceGenerator(WEB_SEARCH, cores=1, seed=4)
        for event in generator.events_for_core(0, 5000):
            if event.is_instruction:
                assert not event.is_write
                assert not event.shared

    def test_traces_for_all_cores(self):
        generator = SyntheticTraceGenerator(WEB_SEARCH, cores=3, seed=1)
        traces = generator.traces(1000)
        assert len(traces) == 3
        assert all(len(t) > 0 for t in traces)

    def test_invalid_arguments(self):
        generator = SyntheticTraceGenerator(WEB_SEARCH, cores=2, seed=1)
        with pytest.raises(ValueError):
            generator.events_for_core(5, 100)
        with pytest.raises(ValueError):
            generator.events_for_core(0, 0)
        with pytest.raises(ValueError):
            SyntheticTraceGenerator(WEB_SEARCH, cores=0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=1000, max_value=20000))
    def test_shared_fraction_tracks_profile(self, instructions):
        generator = SyntheticTraceGenerator(WEB_SEARCH, cores=1, seed=11)
        events = generator.events_for_core(0, instructions)
        if len(events) < 50:
            return
        shared = sum(1 for e in events if e.shared) / len(events)
        assert shared <= WEB_SEARCH.snoop_fraction * 4 + 0.05
