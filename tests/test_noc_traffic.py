"""Bilateral traffic generation: the one-pass layout against the per-core oracle
in ``tests/oracles/noc_traffic.py`` (every column value-equal, in the narrow
types ``batch_column_types`` documents where the oracle builds int64), and the
one-line rejection of bad generator and study arguments."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles.noc_traffic import reference_bilateral_batch
from repro.noc.fastpath import batch_column_types
from repro.noc.simulation import PodNocStudy
from repro.noc.topology import TOPOLOGY_BUILDERS, build_mesh
from repro.noc.traffic import bilateral_injection_rate, generate_bilateral_batch
from repro.workloads import get_workload

COLUMNS = ("injection_time", "source", "destination", "class_code", "flits", "packet_id")
#: The generator's column types whenever node ids fit in int16.
NARROW = {
    "injection_time": np.float64,
    "source": np.int16,
    "destination": np.int16,
    "class_code": np.int8,
    "flits": np.int8,
    "packet_id": np.int32,
}


def _assert_byte_equal(got, want, types=NARROW):
    """``got`` has the documented narrow ``types`` and the oracle's values
    (byte-equal once the oracle's int64 columns are cast to them)."""
    for column in COLUMNS:
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == types[column], column
        assert np.array_equal(a, b), column
        assert a.tobytes() == b.astype(a.dtype).tobytes(), column


def _both(**kwargs):
    return generate_bilateral_batch(**kwargs), reference_bilateral_batch(**kwargs)


#: A small dense case the explicit examples vary one argument of.
CASE = dict(
    core_nodes=list(range(8)),
    num_llcs=2,
    injection_rate=0.1,
    snoop_fraction=0.5,
    seed=1,
    duration_cycles=300,
    active_cores=None,
)


class TestLayoutMatchesReference:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(
        core_nodes=st.lists(st.integers(0, 300), max_size=40, unique=True),
        num_llcs=st.integers(1, 8),
        injection_rate=st.sampled_from([0.0, 0.004, 0.05]) | st.floats(0.0, 0.3),
        snoop_fraction=st.sampled_from([0.0, 1.0, 0.027]) | st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32),
        duration_cycles=st.integers(1, 500),
        active_cores=st.none() | st.integers(0, 50),
    )
    @example(**{**CASE, "core_nodes": []})  # zero cores
    @example(**{**CASE, "active_cores": 0})
    @example(**{**CASE, "active_cores": 9})  # more than the core count
    @example(**{**CASE, "snoop_fraction": 0.0})
    @example(**{**CASE, "snoop_fraction": 1.0})
    @example(**{**CASE, "duration_cycles": 1})
    def test_columns_byte_equal(
        self, core_nodes, num_llcs, injection_rate, snoop_fraction, seed,
        duration_cycles, active_cores,
    ):
        got, want = _both(
            core_nodes=core_nodes,
            llc_nodes=list(range(400, 400 + num_llcs)),
            injection_rate=injection_rate,
            snoop_fraction=snoop_fraction,
            seed=seed,
            duration_cycles=duration_cycles,
            active_cores=active_cores,
        )
        _assert_byte_equal(got, want)

    def test_noc_pod_batches(self):
        """The 14 distinct batches of Figure 4.6 at 12k cycles and seed 1 (the
        benchmark's seed-0 point): mesh and the flattened butterfly number
        their nodes alike and share one batch per workload."""
        study = PodNocStudy(duration_cycles=12_000, seed=1)
        topologies = [TOPOLOGY_BUILDERS[name](cores=64) for name in ("mesh", "fbfly", "nocout")]
        points = {
            (
                tuple(topology.core_nodes),
                tuple(topology.llc_nodes),
                bilateral_injection_rate(workload, per_core_ipc=0.5),
                workload.snoop_fraction,
                study.active_cores_for(workload),
            )
            for topology in topologies
            for workload in study.suite
        }
        assert len(points) == 14
        for cores, llcs, rate, snoop_fraction, active in sorted(points):
            got, want = _both(
                core_nodes=list(cores),
                llc_nodes=list(llcs),
                injection_rate=rate,
                snoop_fraction=snoop_fraction,
                seed=study.seed,
                duration_cycles=study.duration_cycles,
                active_cores=active,
            )
            assert len(got) > 1_000
            _assert_byte_equal(got, want)


GOOD = dict(
    core_nodes=list(range(8)),
    llc_nodes=[8, 9],
    injection_rate=0.05,
    snoop_fraction=0.1,
    seed=0,
    duration_cycles=100,
    active_cores=None,
)


class TestGeneratorInputChecks:
    @pytest.mark.parametrize("name, value", [
        ("active_cores", -1),  # sliced cores[:-1], dropping the last core
        ("active_cores", 2.5),
        ("snoop_fraction", 1.5),
        ("snoop_fraction", -0.1),
        ("snoop_fraction", math.nan),
        ("injection_rate", math.nan),
        ("injection_rate", -0.1),
        ("injection_rate", math.inf),
        ("llc_nodes", []),
        ("duration_cycles", 0),
        ("duration_cycles", 12.5),
    ])
    def test_bad_argument_named_in_one_line(self, name, value):
        with pytest.raises(ValueError) as excinfo:
            generate_bilateral_batch(**{**GOOD, name: value})
        message = str(excinfo.value)
        assert message.startswith(name)
        assert "\n" not in message

    def test_boundary_values_accepted(self):
        for changes in (
            {"snoop_fraction": 0.0},
            {"snoop_fraction": 1.0},
            {"injection_rate": 0.0},
            {"active_cores": 0},
            {"active_cores": np.int64(3)},
            {"duration_cycles": np.int32(1)},
        ):
            got, want = _both(**{**GOOD, **changes})
            _assert_byte_equal(got, want)


class TestColumnTypes:
    @pytest.mark.parametrize("llc, node_type", [
        (32_767, np.int16),
        (32_768, np.int32),
        (2**31, np.int64),
    ])
    def test_node_ids_widen_only_past_their_type(self, llc, node_type):
        """Node ids stay int16 up to 32,767 and widen, never wrap, past it."""
        got, want = _both(**{**GOOD, "llc_nodes": [8, llc]})
        assert got.source.max() == llc
        _assert_byte_equal(got, want, {**NARROW, "source": node_type, "destination": node_type})

    def test_rule_matches_batch_column_types(self):
        assert batch_column_types(32_767, 2**31) == {**NARROW, "packet_id": np.int32}
        assert batch_column_types(5, 2**31 + 1)["packet_id"] is np.int64


class TestRateLawInputChecks:
    @pytest.mark.parametrize("per_core_ipc", [0.0, -1.0, math.nan, math.inf])
    def test_bad_ipc_named_by_rate_law(self, per_core_ipc):
        """Regression: a NaN IPC passed ``per_core_ipc <= 0`` and surfaced
        later as a bad ``injection_rate``."""
        with pytest.raises(ValueError, match="^per_core_ipc"):
            bilateral_injection_rate(get_workload("Web Search"), per_core_ipc)


class TestStudyInputChecks:
    @pytest.mark.parametrize("name, value", [
        ("cores", 0),
        ("cores", 2.5),
        ("duration_cycles", -5),
        ("duration_cycles", 0),
        ("duration_cycles", 12.5),
        ("duration_cycles", True),
        ("seed", 1.5),
        ("seed", -1),
        ("seed", "1"),
    ])
    def test_rejected_at_construction(self, name, value):
        with pytest.raises(ValueError) as excinfo:
            PodNocStudy(**{name: value})
        message = str(excinfo.value)
        assert message.startswith(name)
        assert "\n" not in message
