"""Tests for workload profiles, miss-ratio curves, the suite, and trace generation."""

import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracles.sim_traces import events_per_event

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
from repro.workloads.traces import LINE_BYTES, Trace, TraceEvent


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


class TestWorkloadSuite:
    def test_default_suite_contents(self):
        suite = default_suite()
        assert len(suite) == 7
        assert suite["Web Search"] is WEB_SEARCH
        assert suite[0].name == "Data Serving"

    def test_filtering(self):
        suite = default_suite()
        assert sum(w.max_cores >= 64 for w in suite) == 4
        assert sum(w.max_cores >= 32 for w in suite) == 6
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
        expected = (generator.l1i_miss_per_instr + generator.l1d_miss_per_instr) * 50_000
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


@contextlib.contextmanager
def _recorded_streams():
    """Collect every generator ``np.random.default_rng`` returns while active."""
    made = []
    make = np.random.default_rng

    def recording(*args, **kwargs):
        made.append(make(*args, **kwargs))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", recording):
        yield made


def _assert_matches_oracle(generator, core_id, instructions):
    """The bulk trace equals the per-event oracle column by column, and both
    leave the core's random stream at the same position."""
    with _recorded_streams() as made:
        trace = generator.events_for_core(core_id, instructions)
    events, oracle_rng = events_per_event(generator, core_id, instructions)
    assert trace.gaps == [e.instruction_gap for e in events]
    assert trace.addresses == [e.address for e in events]
    assert trace.is_instruction == [e.is_instruction for e in events]
    assert trace.is_write == [e.is_write for e in events]
    assert trace.shared == [e.shared for e in events]
    assert len(made) == 1
    assert made[0].random() == oracle_rng.random()


class TestBulkTraceGeneration:
    """``events_for_core`` draws in bulk what the per-event oracle draws one by one."""

    @pytest.mark.parametrize("workload", CLOUDSUITE, ids=lambda w: w.name)
    def test_suite_traces_match_per_event_oracle(self, workload):
        for cores in (1, 2, 16):
            for seed in (1, 7):
                generator = SyntheticTraceGenerator(workload, cores=cores, seed=seed)
                for instructions in (1_000, 6_000):
                    for core_id in range(cores):
                        _assert_matches_oracle(generator, core_id, instructions)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        workload=st.sampled_from(CLOUDSUITE),
        # 0 KB / 0 MB / 1e-5 MB regions hold a single line: integers(0, 1)
        # makes no draw.  2**20 MB of dataset is 2**34 lines, above 2**32.
        instruction_kb=st.sampled_from([0, 1, 64, 2048]),
        dataset_mb=st.sampled_from([0, 1, 512, 1 << 20]),
        half_capture_mb=st.sampled_from([1e-5, 0.25, 8.0]),
        snoop_fraction=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        cores=st.integers(1, 4),
        seed=st.integers(0, 2**32),
        instructions=st.integers(1, 8_000),
    )
    def test_synthetic_profiles_match_per_event_oracle(
        self, workload, instruction_kb, dataset_mb, half_capture_mb, snoop_fraction,
        cores, seed, instructions,
    ):
        curve = workload.llc_curve
        profile = dataclasses.replace(
            workload,
            instruction_footprint_kb=instruction_kb,
            dataset_footprint_mb=dataset_mb,
            snoop_fraction=snoop_fraction,
            llc_curve=dataclasses.replace(
                curve, capture=dataclasses.replace(curve.capture, half_capture_mb=half_capture_mb)
            ),
        )
        generator = SyntheticTraceGenerator(profile, cores=cores, seed=seed)
        _assert_matches_oracle(generator, seed % cores, instructions)

    def test_trace_rows(self):
        events = [
            TraceEvent(instruction_gap=3, address=0x40, is_instruction=True, is_write=False, shared=False),
            TraceEvent(instruction_gap=1, address=0x80, is_instruction=False, is_write=True, shared=True),
        ]
        trace = Trace.from_events(events)
        assert len(trace) == 2
        assert trace[1] == events[1]
        assert list(trace) == events
        assert trace == Trace.from_events(iter(events))
        assert trace != Trace.from_events(events[:1])
