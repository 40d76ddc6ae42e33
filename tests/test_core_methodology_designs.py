"""Tests for the scale-out design methodology and the standard design builders."""

import pytest

from repro.core.comparison import compare_designs
from repro.core.designs import (
    DesignSizer,
    DesignSpec,
    build_conventional,
    build_ideal,
    build_llc_optimal_tiled,
    build_llc_optimal_tiled_ir,
    build_scale_out,
    build_single_pod,
    build_tiled,
)
from repro.core.methodology import ScaleOutDesignMethodology, design_scale_out_processor
from repro.technology.node import NODE_20NM, NODE_40NM
from repro.workloads import default_suite


@pytest.fixture(scope="module")
def suite():
    return default_suite()


@pytest.fixture(scope="module")
def methodology(suite):
    return ScaleOutDesignMethodology(NODE_40NM, suite)


class TestMethodology:
    def test_sweep_covers_design_space(self, methodology):
        points = methodology.sweep_pods("ooo", core_counts=(4, 8, 16), llc_sizes_mb=(2.0, 4.0))
        assert len(points) == 6
        assert all(p.performance_density > 0 for p in points)

    def test_pd_peak_in_paper_range_ooo(self, methodology):
        # Figure 3.5: the OoO crossbar peak sits at 16-32 cores with 2-4 MB.
        best = max(
            methodology.sweep_pods("ooo", interconnects=("crossbar",)),
            key=lambda p: p.performance_density,
        )
        assert best.pod.cores in (16, 32, 64)
        assert best.pod.llc_capacity_mb in (2.0, 4.0, 8.0)

    def test_selected_pod_prefers_fewer_cores(self, methodology):
        selected = methodology.pd_optimal_pod("ooo")
        peak = max(
            methodology.sweep_pods("ooo", interconnects=("crossbar",)),
            key=lambda p: p.performance_density,
        )
        assert selected.pod.cores <= peak.pod.cores
        assert selected.performance_density >= 0.97 * peak.performance_density

    def test_max_cores_cap_respected(self, methodology):
        selected = methodology.pd_optimal_pod("ooo", max_cores=8)
        assert selected.pod.cores <= 8

    def test_compose_chip_respects_constraints(self, methodology):
        point = methodology.pd_optimal_pod("ooo")
        chip = methodology.compose_chip(point.pod)
        assert chip.satisfies()
        assert chip.num_pods >= 1
        assert chip.memory_channels <= 6

    def test_design_ooo_matches_paper_shape(self, methodology):
        # Table 3.2: the 40nm OoO Scale-Out chip integrates ~32 cores over 1-2 pods.
        chip = methodology.design("ooo")
        assert 16 <= chip.total_cores <= 48
        assert chip.satisfies()

    def test_design_inorder_matches_paper_shape(self, methodology):
        # Table 3.2: the 40nm in-order Scale-Out chip reaches ~96 cores over ~3 pods.
        chip = methodology.design("inorder")
        assert 64 <= chip.total_cores <= 128
        assert chip.num_pods >= 2
        assert chip.satisfies()

    def test_convenience_entry_point(self):
        chip = design_scale_out_processor("ooo", NODE_40NM)
        assert chip.name.startswith("Scale-Out")

    def test_invalid_tolerance(self, methodology):
        with pytest.raises(ValueError):
            methodology.pd_optimal_pod("ooo", complexity_tolerance=1.5)


class TestDesignBuilders:
    def test_conventional_matches_paper(self, suite):
        chip = build_conventional(NODE_40NM, suite)
        # Table 2.3: 6 conventional cores, 12 MB LLC, power-limited, ~276 mm^2.
        assert chip.total_cores == 6
        assert chip.total_llc_mb == pytest.approx(12.0)
        assert chip.memory_channels == 2
        assert chip.die_area_mm2 == pytest.approx(276.0, rel=0.02)
        assert chip.power_w <= 95.0

    def test_tiled_ooo_matches_paper(self, suite):
        chip = build_tiled("ooo", NODE_40NM, suite)
        # Table 2.3: ~20 cores with 1 MB per tile.
        assert 16 <= chip.total_cores <= 25
        assert chip.total_llc_mb == pytest.approx(chip.total_cores * 1.0)

    def test_tiled_inorder_keeps_area_ratio(self, suite):
        chip = build_tiled("inorder", NODE_40NM, suite)
        assert 56 <= chip.total_cores <= 81
        per_tile_mb = chip.total_llc_mb / chip.total_cores
        assert per_tile_mb == pytest.approx(1.0 * 1.3 / 4.5, rel=0.01)

    def test_llc_optimal_small_cache(self, suite):
        chip = build_llc_optimal_tiled("ooo", NODE_40NM, suite)
        assert chip.total_llc_mb / chip.total_cores == pytest.approx(0.25)
        assert chip.total_cores > build_tiled("ooo", NODE_40NM, suite).total_cores

    def test_ir_variant_flags_set(self, suite):
        chip = build_llc_optimal_tiled_ir("ooo", NODE_40NM, suite)
        assert chip.pod.instruction_replication
        assert chip.pod.offchip_traffic_factor > 1.0

    def test_ideal_uses_llc_optimal_budget(self, suite):
        ideal = build_ideal("ooo", NODE_40NM, suite)
        reference = build_llc_optimal_tiled("ooo", NODE_40NM, suite)
        assert ideal.total_cores == reference.total_cores
        assert ideal.total_llc_mb == pytest.approx(reference.total_llc_mb)
        assert ideal.pod.interconnect == "ideal"

    def test_single_pod_smaller_than_scale_out(self, suite):
        single = build_single_pod("ooo", NODE_40NM, suite)
        multi = build_scale_out("ooo", NODE_40NM, suite)
        assert single.num_pods == 1
        assert single.die_area_mm2 < multi.die_area_mm2 + 1e-6
        assert single.total_cores <= multi.total_cores

    def test_sizer_rejects_impossible_spec(self, suite):
        sizer = DesignSizer(NODE_40NM, suite)
        spec = DesignSpec(name="huge", core_type="conventional", interconnect="crossbar", llc_mb_per_core=100.0)
        with pytest.raises(ValueError):
            sizer.size(spec)

    def test_spec_llc_rules(self):
        per_core = DesignSpec(name="a", core_type="ooo", interconnect="mesh", llc_mb_per_core=0.5)
        fixed = DesignSpec(name="b", core_type="ooo", interconnect="mesh", llc_total_mb=8.0)
        assert per_core.llc_capacity(8) == 4.0
        assert fixed.llc_capacity(8) == 8.0
        with pytest.raises(ValueError):
            DesignSpec(name="c", core_type="ooo", interconnect="mesh").llc_capacity(8)


class TestDesignComparison:
    @pytest.fixture(scope="class")
    def comparison(self, suite):
        designs = [
            build_conventional(NODE_40NM, suite),
            build_tiled("ooo", NODE_40NM, suite),
            build_llc_optimal_tiled("ooo", NODE_40NM, suite),
            build_scale_out("ooo", NODE_40NM, suite),
            build_ideal("ooo", NODE_40NM, suite),
        ]
        return compare_designs(designs)

    def test_headline_ordering(self, comparison):
        # Table 3.2 ordering: conventional < tiled < LLC-optimal < Scale-Out <= ideal.
        pd = {row.design: row.performance_density for row in comparison.rows}
        assert pd["Conventional"] < pd["Tiled (OoO)"]
        assert pd["Tiled (OoO)"] < pd["LLC-Optimal Tiled (OoO)"]
        assert pd["LLC-Optimal Tiled (OoO)"] <= pd["Scale-Out (OoO)"] * 1.02
        assert pd["Scale-Out (OoO)"] <= pd["Ideal (OoO)"] * 1.02

    def test_headline_ratios_match_paper_band(self, comparison):
        # Paper: Scale-Out improves PD by ~3.5x over conventional, ~1.5x over tiled,
        # and lands within ~10% of the ideal processor at 40nm.
        assert 2.5 <= comparison.pd_ratio("Scale-Out (OoO)", "Conventional") <= 4.5
        assert 1.2 <= comparison.pd_ratio("Scale-Out (OoO)", "Tiled (OoO)") <= 2.0
        assert comparison.pd_ratio("Ideal (OoO)", "Scale-Out (OoO)") <= 1.15

    def test_row_lookup_and_dicts(self, comparison):
        assert comparison.row("conventional").design == "Conventional"
        assert comparison.row("Scale-Out").pods >= 1
        with pytest.raises(KeyError):
            comparison.row("nonexistent")
        assert len(comparison.as_dicts()) == len(comparison.rows)

    def test_perf_per_watt_improves(self, comparison):
        scale_out = comparison.row("Scale-Out (OoO)").performance_per_watt
        assert scale_out > 2.0 * comparison.row("Conventional").performance_per_watt
