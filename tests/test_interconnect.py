"""Tests for the analytic interconnect models and the floorplan helper."""

import pytest
from hypothesis import given, strategies as st

from repro.interconnect import (
    CrossbarInterconnect,
    FlattenedButterflyInterconnect,
    Floorplan,
    IdealInterconnect,
    MeshInterconnect,
    NocOutInterconnect,
    interconnect_model,
)
from repro.technology.node import NODE_32NM, NODE_40NM


def floorplan_for(cores: int, llc_mb: float = 4.0, core_area: float = 4.5) -> Floorplan:
    return Floorplan(cores=cores, core_area_mm2=core_area, llc_area_mm2=llc_mb * 5.0)


class TestFloorplan:
    def test_region_area(self):
        plan = floorplan_for(16, 4.0)
        assert plan.region_area_mm2 == pytest.approx(16 * 4.5 + 20.0)
        assert plan.extent_mm == pytest.approx(plan.region_area_mm2**0.5)

    def test_grid_dims_near_square(self):
        assert floorplan_for(16).grid_dims == (4, 4)
        assert floorplan_for(20).grid_dims == (4, 5)
        rows, cols = floorplan_for(64).grid_dims
        assert rows * cols >= 64

    def test_average_hops_grow_with_cores(self):
        assert floorplan_for(64).average_mesh_hops() > floorplan_for(16).average_mesh_hops()

    def test_validation(self):
        with pytest.raises(ValueError):
            Floorplan(cores=0, core_area_mm2=1.0, llc_area_mm2=1.0)
        with pytest.raises(ValueError):
            Floorplan(cores=4, core_area_mm2=-1.0, llc_area_mm2=1.0)

    @given(st.integers(min_value=1, max_value=512))
    def test_tile_area_positive(self, cores):
        plan = floorplan_for(cores)
        assert plan.tile_area_mm2 > 0
        assert plan.tile_pitch_mm > 0


class TestInterconnectFactory:
    @pytest.mark.parametrize(
        "name, cls",
        [
            ("ideal", IdealInterconnect),
            ("crossbar", CrossbarInterconnect),
            ("mesh", MeshInterconnect),
            ("fbfly", FlattenedButterflyInterconnect),
            ("nocout", NocOutInterconnect),
        ],
    )
    def test_lookup(self, name, cls):
        assert isinstance(interconnect_model(name), cls)

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError):
            interconnect_model("torus")


class TestLatencies:
    def test_ideal_constant(self):
        ideal = IdealInterconnect()
        assert ideal.latency_cycles(floorplan_for(4)) == 4.0
        assert ideal.latency_cycles(floorplan_for(256)) == 4.0

    def test_crossbar_matches_table_3_1(self):
        crossbar = CrossbarInterconnect()
        assert crossbar.latency_cycles(floorplan_for(8)) == pytest.approx(4.0)
        assert crossbar.latency_cycles(floorplan_for(16)) == pytest.approx(5.0)
        assert crossbar.latency_cycles(floorplan_for(32)) == pytest.approx(7.0)
        assert crossbar.latency_cycles(floorplan_for(64)) == pytest.approx(11.0)

    def test_mesh_latency_grows_with_cores(self):
        mesh = MeshInterconnect()
        values = [mesh.latency_cycles(floorplan_for(n)) for n in (4, 16, 64, 256)]
        assert values == sorted(values)
        # 3 cycles per hop (Table 2.2).
        assert values[1] == pytest.approx(3.0 * floorplan_for(16).average_mesh_hops())

    def test_fbfly_between_ideal_and_mesh_at_scale(self):
        plan = floorplan_for(64)
        fbfly = FlattenedButterflyInterconnect().latency_cycles(plan)
        mesh = MeshInterconnect().latency_cycles(plan)
        assert 4.0 < fbfly < mesh

    def test_nocout_close_to_fbfly(self):
        plan = floorplan_for(64)
        nocout = NocOutInterconnect().latency_cycles(plan)
        fbfly = FlattenedButterflyInterconnect().latency_cycles(plan)
        assert abs(nocout - fbfly) < 5.0

    def test_interconnect_ordering_at_64_cores(self):
        # Figure 2.3 / Chapter 4: mesh is the slowest organization at scale.
        plan = floorplan_for(64)
        mesh = MeshInterconnect().latency_cycles(plan)
        for other in (IdealInterconnect(), CrossbarInterconnect(), NocOutInterconnect()):
            assert other.latency_cycles(plan) < mesh


class TestAreas:
    def test_areas_positive_and_within_paper_band(self):
        plan = floorplan_for(32, 8.0)
        for model in (IdealInterconnect(), CrossbarInterconnect(), MeshInterconnect()):
            area = model.area_mm2(plan, NODE_40NM)
            assert 0.2 <= area <= 6.0  # Table 2.1: interconnect 0.2 - 4.5 mm^2

    def test_fbfly_much_larger_than_nocout_at_64_cores(self):
        plan = floorplan_for(64, 8.0)
        fbfly = FlattenedButterflyInterconnect().area_mm2(plan, NODE_32NM)
        nocout = NocOutInterconnect().area_mm2(plan, NODE_32NM)
        mesh = MeshInterconnect().area_mm2(plan, NODE_32NM)
        assert fbfly > 5 * nocout
        assert nocout < mesh * 1.5

    def test_crossbar_area_grows_quadratically(self):
        crossbar = CrossbarInterconnect()
        small = crossbar.area_mm2(floorplan_for(16))
        large = crossbar.area_mm2(floorplan_for(64))
        assert large > 4 * small * 0.5

    def test_power_capped_at_5w(self):
        plan = floorplan_for(256, 8.0)
        for name in ("crossbar", "mesh", "fbfly", "nocout", "ideal"):
            assert interconnect_model(name).power_w(plan) <= 5.0
