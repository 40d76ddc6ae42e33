"""Integration tests: the experiment harness regenerates every table and figure."""

import pytest

from repro.experiments import chapter2, chapter3, chapter4, chapter5, chapter6
from repro.experiments.formatting import format_table
from repro.experiments.registry import CATALOG, run_experiment
from repro.workloads import WorkloadSuite, get_workload


@pytest.fixture(scope="module")
def small_suite():
    return WorkloadSuite((get_workload("Web Search"), get_workload("Data Serving")))


class TestRegistry:
    def test_every_paper_experiment_registered(self):
        expected = {
            "figure_2_1", "figure_2_2", "figure_2_3", "table_2_1", "table_2_3", "table_2_4",
            "figure_3_3", "figure_3_4", "figure_3_5", "figure_3_6", "table_3_2",
            "figure_4_3", "figure_4_6", "figure_4_7", "figure_4_8", "table_4_1",
            "table_5_1", "table_5_2", "figure_5_1", "figure_5_2", "figure_5_3",
            "figure_5_4", "figure_5_5", "table_6_1", "table_6_2",
            "figure_6_4", "figure_6_5", "figure_6_6", "figure_6_7",
        }
        assert expected.issubset(set(CATALOG.ids()))

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("figure_9_9")


class TestChapter2:
    def test_figure_2_1(self, small_suite):
        rows = chapter2.figure_2_1_application_ipc(suite=small_suite)
        assert {r["workload"] for r in rows} == set(small_suite.names())
        assert all(0.4 < r["application_ipc"] < 2.5 for r in rows)

    def test_figure_2_2_normalized_to_one(self, small_suite):
        rows = chapter2.figure_2_2_llc_sensitivity(suite=small_suite, llc_sizes_mb=(1, 4, 16))
        for row in rows:
            assert row["1MB"] == pytest.approx(1.0)
            assert row["4MB"] >= 1.0

    def test_figure_2_3_mesh_below_ideal(self, small_suite):
        rows = chapter2.figure_2_3_core_scaling(core_counts=(1, 16, 64), suite=small_suite)
        last = rows[-1]
        assert last["mesh_per_core"] < last["ideal_per_core"]

    def test_table_2_1_contents(self):
        rows = chapter2.table_2_1_components()
        names = {r["component"] for r in rows}
        assert "ooo_core" in names and "soc_misc" in names

    def test_table_2_3_has_all_designs(self, small_suite):
        rows = chapter2.table_2_3_designs_40nm(suite=small_suite)
        designs = {r["design"] for r in rows}
        assert "Conventional" in designs
        assert any("Ideal" in d for d in designs)
        assert not any("Scale-Out" in d for d in designs)


class TestChapter3:
    def test_figure_3_3_small(self, small_suite):
        rows = chapter3.figure_3_3_model_validation(
            core_counts=(2, 4), interconnects=("crossbar",),
            instructions_per_core=2500, suite=small_suite,
        )
        mean_row = rows[-1]
        assert mean_row["workload"] == "MEAN"
        assert mean_row["relative_error"] < 0.6

    def test_figure_3_5_selection(self, small_suite):
        data = chapter3.figure_3_5_pod_selection(suite=small_suite)
        assert data["selected_cores"] in (8, 16, 32, 64)
        assert data["selected_llc_mb"] in (1.0, 2.0, 4.0, 8.0)
        assert len(data["sweep"]) > 10

    def test_table_3_2_scale_out_included(self, small_suite):
        rows = chapter3.table_3_2_design_comparison(suite=small_suite)
        assert any("Scale-Out" in r["design"] for r in rows)


class TestChapter4:
    def test_figure_4_3(self, small_suite):
        rows = chapter4.figure_4_3_snoop_fraction(
            cores=8, instructions_per_core=2500, suite=small_suite
        )
        assert rows[-1]["workload"] == "MEAN"
        assert 0.0 <= rows[-1]["snoop_fraction_percent"] < 10.0

    def test_figure_4_7(self):
        rows = chapter4.figure_4_7_noc_area()
        by_name = {r["topology"]: r["total_mm2"] for r in rows}
        assert by_name["nocout"] < by_name["mesh"] < by_name["fbfly"]

    def test_table_4_1(self):
        rows = chapter4.table_4_1_parameters()
        params = {r["parameter"]: r["value"] for r in rows}
        assert params["cores"] == 64
        assert params["llc_mb"] == 8.0


class TestChapter5:
    def test_table_5_1(self, small_suite):
        rows = chapter5.table_5_1_chip_characteristics(suite=small_suite)
        assert len(rows) == 7
        assert all(r["price_usd"] > 0 for r in rows)

    def test_figures_5_1_5_2(self, small_suite):
        rows = chapter5.figures_5_1_5_2_performance_and_tco(suite=small_suite)
        by_design = {r["design"]: r for r in rows}
        assert by_design["Conventional"]["normalized_performance"] == pytest.approx(1.0)
        assert by_design["Scale-Out (In-order)"]["normalized_performance"] > 2.0

    def test_table_5_2(self):
        rows = chapter5.table_5_2_parameters()
        assert {"parameter", "value"} == set(rows[0].keys())


class TestChapter6:
    def test_table_6_1(self):
        rows = chapter6.table_6_1_components()
        assert any(r["component"] == "ddr3_interface" or r["component"] == "ddr4_interface" for r in rows)

    def test_figure_6_5(self, small_suite):
        rows = chapter6.figure_6_5_strategies_ooo(suite=small_suite)
        assert any(r["strategy"] == "fixed-pod" for r in rows)
        assert any(r["strategy"] == "fixed-distance" for r in rows)
        assert all(r["performance_density"] > 0 for r in rows)


class TestServiceStudies:
    def test_service_specs_registered(self):
        assert {
            "service_latency_sweep",
            "service_policy_comparison",
            "service_cluster_sizing",
        }.issubset(set(CATALOG.ids()))
        for spec in CATALOG.by_kind("study"):
            assert spec.chapter in (7, 9, 10, 11)

    def test_latency_sweep_p99_monotone_and_diverging(self, small_suite):
        from repro.experiments import service

        rows = service.service_latency_sweep(
            utilizations=(0.5, 0.9, 1.5),
            num_servers=2,
            num_requests=3_000,
            suite=small_suite,
        )
        p99s = [r["p99_ms"] for r in rows]
        assert p99s == sorted(p99s)
        assert p99s[-1] > 1.5 * p99s[0]
        assert rows[-1]["mmk_p99_ms"] is None  # past saturation

    def test_policy_comparison_covers_policies(self, small_suite):
        from repro.experiments import service

        rows = service.service_policy_comparison(
            num_servers=2, num_requests=1_500, suite=small_suite
        )
        assert {r["policy"] for r in rows} == {"random", "round_robin", "po2", "jsq"}
        by_policy = {r["policy"]: r for r in rows}
        assert by_policy["jsq"]["mean_ms"] <= by_policy["random"]["mean_ms"]

    def test_cluster_sizing_ranks_designs(self, small_suite):
        from repro.experiments import service

        rows = service.service_cluster_sizing(
            target_qps=500_000.0, suite=small_suite
        )
        by_design = {r["design"]: r for r in rows}
        assert set(by_design) == {
            "Conventional", "Scale-Out (OoO)", "Scale-Out 3D (OoO)",
        }
        for row in rows:
            assert row["p99_ms"] <= row["sla_p99_ms"]
            assert row["monthly_tco_usd"] > 0
        # The scale-out designs serve the target with far fewer servers.
        assert by_design["Scale-Out (OoO)"]["servers"] < by_design["Conventional"]["servers"]

    def test_unknown_design_rejected(self):
        from repro.experiments.service import build_service_chip

        with pytest.raises(ValueError, match="unknown service design"):
            build_service_chip("Tiled")


class TestFormatting:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no data)" in format_table([], title="Empty")
