"""Tests for the ``python -m repro`` command line."""

import json

import pytest

from repro.runtime.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_rejected(capsys, *argv):
    """Run ``argv``, assert it exits 2 with one ``error:`` line; return it."""
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    return err.strip()


class TestList:
    def test_list_all(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        assert "figure_4_6" in out and "table_3_2" in out
        assert "service_latency_sweep" in out
        assert "49 experiments" in out

    def test_list_filters(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--chapter", "4", "--kind", "table")
        assert code == 0
        assert "table_4_1" in out
        assert "figure_4_6" not in out

    def test_list_studies(self, capsys):
        code, out, _ = run_cli(capsys, "list", "--kind", "study")
        assert code == 0
        assert "service_cluster_sizing" in out
        assert "table_4_1" not in out

    def test_list_no_match(self, capsys):
        code, _, err = run_cli(capsys, "list", "--chapter", "12")
        assert code == 1
        assert "no experiments" in err


class TestRun:
    def test_run_prints_table_and_provenance(self, capsys):
        code, out, _ = run_cli(capsys, "run", "table_4_1")
        assert code == 0
        assert "link_width_bits" in out
        assert "# table_4_1: cache=" in out

    def test_run_json(self, capsys):
        code, out, _ = run_cli(capsys, "run", "table_5_2", "--json", "--no-cache")
        assert code == 0
        payload = json.loads(out)
        assert payload["experiment"] == "table_5_2"
        assert any(row["parameter"] == "pue" for row in payload["rows"])

    def test_run_json_carries_full_envelope(self, capsys):
        code, out, _ = run_cli(capsys, "run", "table_5_2", "--json", "--no-cache")
        assert code == 0
        payload = json.loads(out)
        assert payload["cache_status"] == "disabled"
        assert payload["wall_time_s"] >= 0
        assert payload["provenance"]["function"].startswith("repro.experiments")
        assert "cache_key" in payload["provenance"]

    def test_run_json_cache_status_reflects_hits(self, capsys, tmp_path):
        argv = ("run", "table_5_2", "--cache-dir", str(tmp_path), "--json")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert json.loads(first)["cache_status"] == "miss"
        assert json.loads(second)["cache_status"] == "hit"

    def test_run_with_overrides(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "figure_2_2", "--set", "llc_sizes_mb=(1,4)", "--json", "--no-cache"
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert set(rows[0]) == {"workload", "1MB", "4MB"}

    @pytest.mark.parametrize("argv", [
        ("run", "table_4_1", "--set", "bogus_key=1"),
        ("run", "figure_4_7", "--set", "bogus_key=1"),
        ("sweep", "figure_2_2", "--set", "bogus_key=1,2"),
    ])
    def test_unknown_set_key_rejected_before_running(self, capsys, monkeypatch, argv):
        from repro.experiments import registry

        calls = []
        monkeypatch.setattr(registry, "run_experiment", lambda *a, **k: calls.append(a))
        err = assert_rejected(capsys, *argv)
        accepted = {
            "table_4_1": "none",
            "figure_4_7": "suite",
            "figure_2_2": "llc_sizes_mb, cores, suite, model",
        }[argv[1]]
        assert err == (
            f"error: {argv[1]} takes no parameter 'bogus_key'; accepted: {accepted}"
        )
        assert calls == []

    def test_unknown_key_rejected_before_any_id_runs(self, capsys):
        code, out, err = run_cli(
            capsys, "run", "figure_2_2", "table_4_1", "--set", "cores=2"
        )
        assert code == 2 and out == ""
        assert err.startswith("error: table_4_1 takes no parameter 'cores'")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("override, name", [
        ("duration_cycles=-5", "duration_cycles"),
        ("duration_cycles=12.5", "duration_cycles"),
        ("seed=-1", "seed"),
    ])
    def test_bad_noc_override_is_one_line_error(self, capsys, monkeypatch, override, name):
        """Regression: ``duration_cycles=-5`` ran the bad point twice and ended
        in a ``SweepPointError`` traceback; ``12.5`` blamed ``seed``."""
        from repro.noc import simulation

        evaluated = []
        monkeypatch.setattr(simulation, "_evaluate_noc_point", lambda *a: evaluated.append(a))
        code, out, err = run_cli(capsys, "run", "figure_4_6", "--no-cache", "--set", override)
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: {name} ") and err.count("\n") == 1
        assert evaluated == []

    @pytest.mark.parametrize("argv, fragment", [
        (("run", "table_4_1", "--set", "cores"), "--set expects key=value, got 'cores'"),
        (("sweep", "figure_2_2", "--set", "cores"), "--set expects key=v1,v2,..., got 'cores'"),
    ])
    def test_malformed_set_is_one_line_error(self, capsys, argv, fragment):
        assert assert_rejected(capsys, *argv) == f"error: {fragment}"

    @pytest.mark.parametrize("experiment, override, message", [
        ("service_latency_sweep", "utilizations=0.5",
         "utilizations must be a non-empty sequence of positive, finite numbers, got 0.5"),
        ("service_latency_sweep", "utilizations=()",
         "utilizations must be a non-empty sequence of positive, finite numbers, got ()"),
        ("service_latency_sweep", "utilizations=(0.5,-0.2,0.7)",
         "utilizations[1] must be positive and finite, got -0.2"),
        ("service_policy_comparison", "utilization=nan",
         "utilization must be positive and finite, got 'nan'"),
        ("service_policy_comparison", "utilization=0",
         "utilization must be positive and finite, got 0"),
        ("service_policy_comparison", "policies=jsq",
         "policies must be a non-empty sequence of balancer policy names, got 'jsq'"),
        ("service_policy_comparison", "policies=()",
         "policies must be a non-empty sequence of balancer policy names, got ()"),
        ("service_policy_comparison", "policies=('random','bogus')",
         "policies[1] must be one of ['jsq', 'po2', 'random', 'round_robin'], got 'bogus'"),
    ])
    def test_bad_service_load_is_one_line_error(self, capsys, monkeypatch,
                                                experiment, override, message):
        """Regression: a scalar ended in a ``TypeError`` (``policies=jsq``
        blamed ``'j'``), ``()`` printed an empty table, a negative entry blamed
        ``offered_qps``, ``nan`` ended in a ``TypeError`` on a string and an
        unknown policy was rejected only after calibration."""
        from repro.experiments import service

        built = []
        monkeypatch.setattr(service, "_server_capacity", lambda *a: built.append(a))
        err = assert_rejected(capsys, "run", experiment, "--no-cache", "--set", override)
        assert err == f"error: {message}"
        assert built == []

    @pytest.mark.parametrize("experiment", ["fault_service_sweep", "fault_mttr_sensitivity"])
    @pytest.mark.parametrize("override, message", [
        ("num_servers=0", "num_servers must be an integer >= 1, got 0"),
        ("num_servers=2.5", "num_servers must be an integer >= 1, got 2.5"),
        ("num_requests=0", "num_requests must be an integer >= 1, got 0"),
        ("num_requests=-5", "num_requests must be an integer >= 1, got -5"),
        ("utilization=0", "utilization must be positive and finite, got 0"),
        ("utilization=nan", "utilization must be positive and finite, got 'nan'"),
    ])
    def test_bad_fault_load_is_one_line_error(self, capsys, monkeypatch,
                                              experiment, override, message):
        """Regression: zero servers or zero load ended in a
        ``ZeroDivisionError`` traceback (exit 1) at the fault horizon, and
        ``num_requests <= 0`` blamed the computed ``horizon_s``."""
        from repro.experiments import faults

        built = []
        monkeypatch.setattr(faults, "_server_capacity", lambda *a: built.append(a))
        err = assert_rejected(capsys, "run", experiment, "--no-cache", "--serial",
                              "--set", override)
        assert err == f"error: {message}"
        assert built == []

    @pytest.mark.parametrize("experiment", ["figure_3_3", "figure_4_3"])
    @pytest.mark.parametrize("value", ["0", "1.5", "True"])
    def test_bad_instruction_count_is_one_line_error(self, capsys, experiment, value):
        """Regression: ``1.5`` and ``True`` ran and printed rows; the check
        is in ``SimulatedSystem.run``, which every simulated point calls."""
        err = assert_rejected(capsys, "run", experiment, "--no-cache", "--serial",
                              "--set", f"instructions_per_core={value}")
        assert err == f"error: instructions_per_core must be an integer >= 1, got {value}"

    def test_fractional_core_count_is_one_line_error(self, capsys):
        """Regression: ``1.5`` ran and printed a 1.5-core row, exit 0."""
        err = assert_rejected(capsys, "run", "figure_2_3", "--no-cache",
                              "--set", "core_counts=(1.5, 2)")
        assert err == "error: cores must be an integer >= 1, got 1.5"

    def test_heavily_degraded_links_run(self, capsys):
        """Regression: a 100,000x link latency overflowed the NoC's int16
        latency table and ended in an ``OverflowError`` traceback."""
        code, out, err = run_cli(capsys, "run", "fault_noc_links", "--no-cache", "--serial",
                                 "--set", "degraded_links=2", "--set", "degradation_factor=100000",
                                 "--set", "duration_cycles=500")
        assert code == 0 and err == ""
        assert "# fault_noc_links: cache=disabled" in out and "rows=5" in out

    @pytest.mark.parametrize("value, shown", [
        ("1e30", "1e+30"), ("1e400", "inf"), ("nan", "'nan'"), ("0.5", "0.5"), ("True", "True"),
    ])
    def test_bad_degradation_factor_is_one_line_error(self, capsys, value, shown):
        """Regression: ``1e30`` and ``1e400`` ended in an ``OverflowError``
        traceback, ``nan`` in a ``TypeError`` traceback, and ``0.5`` blamed the
        internal ``link_degradation_factor``."""
        err = assert_rejected(capsys, "run", "fault_noc_links", "--no-cache", "--serial",
                              "--set", "degraded_links=2", "--set", f"degradation_factor={value}",
                              "--set", "duration_cycles=500")
        assert err.startswith("error: degradation_factor must be a finite number >= 1 ")
        assert err.endswith(f", got {shown}")

    def test_engine_override_is_unknown_key(self, capsys):
        """The fleet studies have one engine and no ``engine`` parameter."""
        err = assert_rejected(capsys, "run", "fleet_diurnal_day", "--no-cache",
                              "--set", "engine=event")
        assert err.startswith("error: fleet_diurnal_day takes no parameter 'engine'")

    def test_bad_sweep_value_is_one_line_error(self, capsys):
        """Regression: ``sweep`` ended in a ``ValueError`` traceback, exit 1."""
        err = assert_rejected(capsys, "sweep", "figure_4_6", "--no-cache",
                              "--set", "duration_cycles=-5,10")
        assert err == "error: duration_cycles must be an integer >= 1, got -5"

    def test_point_failing_in_a_worker_is_one_line_error(self, capsys):
        """Regression: a point failing in a pool worker ran twice and ended in
        a ``SweepPointError`` traceback."""
        err = assert_rejected(capsys, "run", "service_policy_comparison", "--no-cache",
                              "--parallel", "--workers", "2",
                              "--set", "arrival='bogus'",
                              "--set", "num_requests=500")
        assert err == "error: unknown arrival process 'bogus'; known: ['mmpp', 'poisson']"

    def test_run_unknown_id(self, capsys):
        code, _, err = run_cli(capsys, "run", "figure_9_9")
        assert code == 2
        assert "unknown experiment" in err

    def test_run_node_flag_restricts_family_study(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "node_family_table", "--node", "7nm", "--json", "--no-cache"
        )
        assert code == 0
        payload = json.loads(out)
        assert [row["node"] for row in payload["rows"]] == ["7nm"]
        assert payload["provenance"]["nodes"] == [
            {
                "node": "7nm",
                "calibrated": False,
                "extrapolated_rules": ["logic_area", "vdd", "logic_power", "wires"],
            }
        ]

    def test_run_node_flag_on_single_node_experiment(self, capsys):
        code, out, _ = run_cli(
            capsys, "run", "table_2_1", "--node", "20nm", "--json", "--no-cache"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["provenance"]["nodes"][0]["node"] == "20nm"
        assert payload["provenance"]["nodes"][0]["calibrated"] is True

    def test_run_node_flag_rejects_non_node_experiment(self, capsys):
        err = assert_rejected(capsys, "run", "fleet_diurnal_day", "--node", "7nm")
        assert "not node-parameterized" in err

    def test_run_disk_cache_hits_across_invocations(self, capsys, tmp_path):
        argv = ("run", "table_5_2", "--cache-dir", str(tmp_path))
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert "cache=miss" in first
        assert "cache=hit" in second

    def test_run_identical_rows_to_library_call(self, capsys):
        from repro.experiments.registry import run_experiment

        code, out, _ = run_cli(capsys, "run", "table_4_1", "--json", "--no-cache")
        assert code == 0
        assert json.loads(out)["rows"] == run_experiment("table_4_1", use_cache=False).rows


class TestSweep:
    def test_sweep_cross_product(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "figure_2_2",
            "--set", "llc_sizes_mb=(1,4)",
            "--set", "cores=2,4",
            "--json", "--no-cache",
        )
        assert code == 0
        payload = json.loads(out)
        assert sorted({row["cores"] for row in payload["rows"]}) == [2, 4]

    def test_sweep_rows_tagged_with_point(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "figure_2_2", "--set", "llc_sizes_mb=(1,4),(1,8)", "--json", "--no-cache",
        )
        assert code == 0
        payload = json.loads(out)
        values = sorted(tuple(row["llc_sizes_mb"]) for row in payload["rows"])
        assert set(values) == {(1, 4), (1, 8)}

    def test_sweep_json_carries_point_envelopes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "sweep", "figure_2_2", "--set", "cores=2,4", "--json", "--no-cache",
        )
        assert code == 0
        payload = json.loads(out)
        assert [p["point"] for p in payload["points"]] == [{"cores": 2}, {"cores": 4}]
        for point in payload["points"]:
            assert point["cache_status"] == "disabled"
            assert point["wall_time_s"] >= 0
            assert "cache_key" in point["provenance"]

    def test_sweep_requires_axis(self, capsys):
        err = assert_rejected(capsys, "sweep", "table_4_1")
        assert "at least one --set" in err


class TestExplore:
    ARGS = (
        "--set", "core_types=('ooo',)",
        "--set", "cores_per_pod=(8,16)",
        "--set", "llc_per_pod_mb=(4.0,)",
        "--set", "pods_per_chip=(1,2)",
    )

    def test_explore_prints_frontier_and_knee(self, capsys):
        code, out, _ = run_cli(capsys, "explore", "explore_pod_40nm",
                               "--no-cache", *self.ARGS)
        assert code == 0
        assert "Pareto frontier" in out
        assert "# knee [ooo]:" in out
        assert "# objectives: max performance_density" in out
        assert "candidates=4" in out

    def test_explore_json_envelope_carries_candidates_and_frontier(self, capsys):
        code, out, _ = run_cli(capsys, "explore", "explore_pod_40nm",
                               "--no-cache", "--json", *self.ARGS)
        assert code == 0
        envelope = json.loads(out)
        assert len(envelope["rows"]) == 4          # every evaluated candidate
        assert envelope["frontier"]                # the Pareto-optimal subset
        assert all(row["on_frontier"] for row in envelope["frontier"])
        assert envelope["stats"]["candidates"] == 4
        assert envelope["data"]["knees"]

    def test_explore_warm_disk_cache_hits(self, capsys, tmp_path):
        run_cli(capsys, "explore", "explore_pod_40nm", "--json",
                "--cache-dir", str(tmp_path), *self.ARGS)
        code, out, _ = run_cli(capsys, "explore", "explore_pod_40nm", "--json",
                               "--cache-dir", str(tmp_path), *self.ARGS)
        assert code == 0
        envelope = json.loads(out)
        assert envelope["cache_status"] == "hit"
        assert len(envelope["rows"]) == 4

    def test_explore_no_cache_reaches_the_evaluation_cache(self, capsys):
        # --no-cache must disable the per-candidate evaluation cache too:
        # a second run in the same process re-evaluates everything.
        for _ in range(2):
            code, out, _ = run_cli(capsys, "explore", "explore_pod_40nm",
                                   "--no-cache", "--json", *self.ARGS)
            assert code == 0
            stats = json.loads(out)["stats"]
            assert stats["evaluated"] == 4
            assert stats["cache_hits"] == 0

    def test_explore_rejects_non_explore_specs(self, capsys):
        err = assert_rejected(capsys, "explore", "figure_4_6")
        assert "not an exploration" in err

    def test_explore_strategy_flags_bound_the_search(self, capsys):
        code, out, _ = run_cli(capsys, "explore", "explore_pod_40nm",
                               "--strategy", "ga", "--budget", "16", "--seed", "3",
                               "--no-cache", "--json")
        assert code == 0
        stats = json.loads(out)["stats"]
        assert stats["strategy"] == "ga"
        assert stats["budget"] == 16
        assert stats["seed"] == 3
        assert stats["candidates"] <= 16

    def test_explore_halving_strategy_runs(self, capsys):
        code, out, _ = run_cli(capsys, "explore", "explore_pod_40nm",
                               "--strategy", "halving", "--budget", "12",
                               "--no-cache", "--json")
        assert code == 0
        stats = json.loads(out)["stats"]
        assert stats["strategy"] == "halving"
        assert stats["candidates"] <= 12

    def test_explore_same_seed_is_deterministic(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run_cli(capsys, "explore", "explore_pod_40nm",
                                   "--strategy", "ga", "--budget", "16",
                                   "--seed", "1", "--no-cache", "--json")
            assert code == 0
            envelope = json.loads(out)
            outs.append([row["candidate"] for row in envelope["rows"]])
        assert outs[0] == outs[1]

    def test_explore_pod_scale_rejects_exhaustive(self, capsys):
        err = assert_rejected(capsys, "explore", "explore_pod_scale",
                              "--strategy", "exhaustive", "--no-cache", "--json")
        assert "exhaustive" in err

    def test_explore_rejects_unknown_strategy(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(capsys, "explore", "explore_pod_40nm",
                    "--strategy", "annealing")


class TestReport:
    def test_report_markdown_to_stdout(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "report", "--only", "chapter4",
                               "--cache-dir", str(tmp_path))
        assert code == 0
        assert out.startswith("# Reproduction report")
        assert "ch4-fbfly-beats-mesh" in out

    def test_report_out_writes_file_and_prints_summary(self, capsys, tmp_path):
        target = tmp_path / "REPORT.md"
        code, out, _ = run_cli(capsys, "report", "--only", "figure_4_7",
                               "--out", str(target), "--cache-dir", str(tmp_path))
        assert code == 0
        assert "# wrote" in out and "0 fail" in out
        assert target.read_text(encoding="utf-8").startswith("# Reproduction report")

    def test_report_json_envelope(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "report", "--only", "chapter4", "--json",
                               "--cache-dir", str(tmp_path), "--serial")
        assert code == 0
        payload = json.loads(out)
        assert payload["summary"]["fail"] == 0
        assert payload["summary"]["claims"] == len(payload["claims"]) >= 5
        assert all(claim["chapter"] == 4 for claim in payload["claims"])

    def test_report_json_with_out_writes_file_and_keeps_stdout_pure(self, capsys, tmp_path):
        target = tmp_path / "REPORT.md"
        code, out, err = run_cli(capsys, "report", "--only", "figure_4_7",
                                 "--json", "--out", str(target),
                                 "--cache-dir", str(tmp_path))
        assert code == 0
        assert json.loads(out)["summary"]["fail"] == 0   # stdout is pure JSON
        assert "# wrote" in err
        assert target.read_text(encoding="utf-8").startswith("# Reproduction report")

    def test_report_svg_dir(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "report", "--only", "figure_4_7",
                             "--svg-dir", str(tmp_path / "figs"),
                             "--cache-dir", str(tmp_path))
        assert code == 0
        svg = (tmp_path / "figs" / "report_chapter4.svg").read_text(encoding="utf-8")
        assert svg.startswith("<svg") and "ch4-nocout-cheapest" in svg

    def test_report_rejects_unknown_only_token(self, capsys):
        code, _, err = run_cli(capsys, "report", "--only", "chapter99-zzz")
        assert code == 2
        assert "matches no chapter" in err

    def test_report_no_cache_reaches_the_evaluation_cache(self, capsys):
        # --no-cache must also disable the explore studies' internal
        # per-candidate evaluation cache: both runs re-evaluate everything.
        for _ in range(2):
            code, out, _ = run_cli(capsys, "report", "--only", "explore_sla_sizing",
                                   "--no-cache", "--json")
            assert code == 0
            payload = json.loads(out)
            assert payload["summary"]["fail"] == 0
            assert {e["cache_status"] for e in payload["experiments"]} == {"disabled"}
