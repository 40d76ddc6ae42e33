"""Tests for the experiment runtime: specs, catalog, cache, and executor."""

import pytest

from repro.experiments import chapter2
from repro.experiments.registry import CATALOG, run_experiment
from repro.noc.simulation import PodNocStudy
from repro.runtime import (
    ExperimentResult,
    ExperimentSpec,
    ResultCache,
    SpecCatalog,
    SweepExecutor,
    UnknownExperimentError,
    canonicalize,
    result_key,
)
from repro.workloads import WorkloadSuite, get_workload


@pytest.fixture(scope="module")
def small_suite():
    return WorkloadSuite((get_workload("Web Search"), get_workload("Data Serving")))


class TestSpecCatalog:
    def test_lookup_by_id(self):
        spec = CATALOG.get("figure_4_6")
        assert spec.chapter == 4
        assert spec.kind == "figure"
        assert callable(spec.function)

    def test_version_salts_cache_token(self):
        # figure_4_3's rows gained a column; its bumped version must shed
        # cache entries written by older code, while version-1 specs keep
        # their historical tokens (existing caches stay valid).
        assert CATALOG.get("figure_4_3").cache_token.endswith("@v2")
        assert "@v" not in CATALOG.get("figure_4_6").cache_token

    def test_accepted_parameters_follow_the_signature(self):
        def takes_kwargs(seed=1, **options):
            return []

        assert CATALOG.get("figure_4_6").accepted_parameters() == (
            "duration_cycles", "suite", "seed", "executor",
        )
        assert CATALOG.get("table_4_1").accepted_parameters() == ()
        spec = ExperimentSpec("kwargs_study", 7, "study", takes_kwargs)
        assert spec.accepted_parameters() is None

    def test_unknown_id_raises(self):
        with pytest.raises(UnknownExperimentError) as excinfo:
            CATALOG.get("figure_9_9")
        assert "figure_9_9" in str(excinfo.value)
        assert isinstance(excinfo.value, KeyError)  # backward compatible

    def test_lookup_by_chapter_and_kind(self):
        chapter4 = CATALOG.by_chapter(4)
        assert {s.experiment_id for s in chapter4} == {
            "figure_4_3", "figure_4_6", "figure_4_7", "figure_4_8", "table_4_1",
        }
        tables = CATALOG.by_kind("table")
        assert all(s.kind == "table" for s in tables)
        assert len(tables) == 9
        assert CATALOG.select(chapter=4, kind="table")[0].experiment_id == "table_4_1"

    def test_catalog_covers_every_chapter(self):
        # Chapters 2-6 are the paper's evaluation; 7 holds the service
        # studies, 8 the design-space explorations, 9 the fault studies, 10
        # the fleet-scale traffic studies, and 11 the technology-node family.
        assert CATALOG.chapters() == [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]
        assert len(CATALOG) == 49
        assert len(CATALOG.by_kind("study")) == 15
        assert len(CATALOG.by_kind("explore")) == 5

    def test_duplicate_registration_rejected(self):
        spec = CATALOG.get("table_4_1")
        catalog = SpecCatalog([spec])
        with pytest.raises(ValueError):
            catalog.register(spec)

    def test_spec_parameter_defaults_and_overrides(self):
        spec = ExperimentSpec(
            experiment_id="table_2_1x",
            chapter=2,
            kind="table",
            function=chapter2.table_2_1_components,
            parameters={},
        )
        assert spec.merged_kwargs({"a": 1}) == {"a": 1}
        assert spec.run()  # defaults run cleanly

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec("x", 2, "plot", chapter2.table_2_1_components)


class TestResultCache:
    def test_hit_miss_determinism(self, small_suite):
        cache = ResultCache()
        first = run_experiment(
            "figure_2_2", cache=cache, suite=small_suite, llc_sizes_mb=(1, 4)
        )
        second = run_experiment(
            "figure_2_2", cache=cache, suite=small_suite, llc_sizes_mb=(1, 4)
        )
        assert first.cache_status == "miss"
        assert second.cache_status == "hit"
        assert first.rows == second.rows

    def test_different_kwargs_miss(self, small_suite):
        cache = ResultCache()
        a = run_experiment("figure_2_2", cache=cache, suite=small_suite, llc_sizes_mb=(1, 4))
        b = run_experiment("figure_2_2", cache=cache, suite=small_suite, llc_sizes_mb=(1, 8))
        assert a.cache_status == b.cache_status == "miss"
        assert a.rows != b.rows

    def test_same_seed_identical_rows_across_caches(self, small_suite):
        kwargs = dict(cores=4, instructions_per_core=1500, suite=small_suite, seed=11)
        a = run_experiment("figure_4_3", cache=ResultCache(), **kwargs)
        b = run_experiment("figure_4_3", cache=ResultCache(), **kwargs)
        assert a.cache_status == b.cache_status == "miss"
        assert a.rows == b.rows

    def test_use_cache_false_bypasses(self, small_suite):
        cache = ResultCache()
        run_experiment("figure_2_2", cache=cache, suite=small_suite, llc_sizes_mb=(1, 4))
        again = run_experiment(
            "figure_2_2", use_cache=False, cache=cache, suite=small_suite, llc_sizes_mb=(1, 4)
        )
        assert again.cache_status == "disabled"

    def test_aliased_figures_share_computation(self, small_suite):
        cache = ResultCache()
        first = run_experiment("figure_5_1", cache=cache, suite=small_suite)
        second = run_experiment("figure_5_2", cache=cache, suite=small_suite)
        assert first.cache_status == "miss"
        assert second.cache_status == "hit"
        assert first.rows == second.rows

    def test_cached_payload_isolated_from_mutation(self, small_suite):
        cache = ResultCache()
        first = run_experiment("figure_2_2", cache=cache, suite=small_suite, llc_sizes_mb=(1, 4))
        first.rows[0]["workload"] = "CLOBBERED"
        second = run_experiment("figure_2_2", cache=cache, suite=small_suite, llc_sizes_mb=(1, 4))
        assert second.rows[0]["workload"] != "CLOBBERED"

    def test_disk_tier_round_trip(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        cache.put("k1", [{"a": 1.5}])
        fresh = ResultCache(cache_dir=str(tmp_path))
        assert fresh.get("k1") == [{"a": 1.5}]
        assert "k1" in fresh
        fresh.clear()
        assert ResultCache(cache_dir=str(tmp_path)).get("k1") is None

    def test_disk_tier_pickles_non_json_payloads(self, tmp_path):
        cache = ResultCache(cache_dir=str(tmp_path))
        payload = [{"value": {1, 2, 3}}]  # sets are not JSON-serializable
        cache.put("k2", payload)
        assert ResultCache(cache_dir=str(tmp_path)).get("k2") == payload


class TestCacheKeys:
    def test_executor_excluded_from_key(self):
        base = result_key("fn", {"seed": 1})
        with_executor = result_key("fn", {"seed": 1, "executor": SweepExecutor()})
        assert base == with_executor

    def test_kwargs_and_function_change_key(self):
        assert result_key("fn", {"seed": 1}) != result_key("fn", {"seed": 2})
        assert result_key("fn", {"seed": 1}) != result_key("other", {"seed": 1})

    def test_changed_code_fingerprint_misses_a_warm_cache(self, tmp_path, monkeypatch):
        """A disk-cached result is served only to the sources that made it."""
        import repro.runtime.cache as cache_module

        cold = run_experiment("table_4_1", cache=ResultCache(cache_dir=str(tmp_path)))
        warm = run_experiment("table_4_1", cache=ResultCache(cache_dir=str(tmp_path)))
        assert (cold.cache_status, warm.cache_status) == ("miss", "hit")
        assert warm.provenance["code_fingerprint"] == cache_module.code_fingerprint()
        assert len(warm.provenance["code_fingerprint"]) == 64
        monkeypatch.setattr(cache_module, "code_fingerprint", lambda: "0" * 64)
        changed = run_experiment("table_4_1", cache=ResultCache(cache_dir=str(tmp_path)))
        assert changed.cache_status == "miss"
        assert changed.provenance["cache_key"] != warm.provenance["cache_key"]
        assert changed.rows == warm.rows

    def test_code_fingerprint_is_not_computed_at_import(self):
        """Hashing the sources waits for the first cache key (import stays cheap)."""
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        probe = (
            "import repro.experiments.registry, repro.runtime.cache as cache; "
            "print(cache.code_fingerprint.cache_info().currsize)"
        )
        output = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout
        assert output.strip() == "0"

    def test_dataclasses_canonicalize_structurally(self, small_suite):
        other = WorkloadSuite((get_workload("Web Search"), get_workload("Data Serving")))
        assert canonicalize(small_suite) == canonicalize(other)
        assert result_key("fn", {"suite": small_suite}) == result_key("fn", {"suite": other})


class TestSweepExecutor:
    def test_serial_and_parallel_noc_study_identical(self, small_suite):
        study = PodNocStudy(duration_cycles=1200, suite=small_suite, seed=1)
        serial = study.evaluate(executor=SweepExecutor(mode="serial"))
        parallel = study.evaluate(executor=SweepExecutor(mode="process", max_workers=2))
        assert serial == parallel  # NocSimulationResult dataclasses compare by value
        assert {r.topology for r in serial} == {"mesh", "fbfly", "nocout"}

    def test_run_experiment_serial_parallel_identical(self, small_suite):
        kwargs = dict(duration_cycles=1200, suite=small_suite, seed=1, use_cache=False)
        serial = run_experiment("figure_4_6", executor=SweepExecutor(mode="serial"), **kwargs)
        parallel = run_experiment("figure_4_6", executor=SweepExecutor(mode="process"), **kwargs)
        assert serial.rows == parallel.rows

    def test_map_preserves_order(self):
        executor = SweepExecutor(mode="process", max_workers=2)
        assert executor.map(abs, [(-n,) for n in range(20)]) == list(range(20))

    def test_chunked_map_matches_serial(self):
        """Chunked process-pool fan-out returns the same ordered results."""
        points = [(-n,) for n in range(23)]
        serial = SweepExecutor(mode="serial").map(abs, points)
        for chunksize in (1, 4, 7, 50):
            chunked = SweepExecutor(
                mode="process", max_workers=2, chunksize=chunksize
            ).map(abs, points)
            assert chunked == serial

    def test_invalid_chunksize_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(chunksize=0)

    def test_bare_values_as_points(self):
        assert SweepExecutor(mode="serial").map(abs, [-1, -2]) == [1, 2]

    def test_auto_mode_thresholds(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        executor = SweepExecutor(min_parallel_points=4)
        assert executor.resolved_mode(2) == "serial"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "serial")
        assert SweepExecutor().resolved_mode(1000) == "serial"
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        assert SweepExecutor().resolved_mode(1000) == "process"
        # explicit modes are not overridden by the environment
        assert SweepExecutor(mode="serial").resolved_mode(1000) == "serial"

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            SweepExecutor(mode="threads")


class TestExperimentResult:
    def test_envelope_fields(self, small_suite):
        result = run_experiment(
            "figure_2_1", cache=ResultCache(), suite=small_suite
        )
        assert result.experiment_id == "figure_2_1"
        assert result.wall_time_s >= 0.0
        assert result.provenance["function"].endswith("figure_2_1_application_ipc")
        assert "cache_key" in result.provenance

    def test_dict_data_normalizes_to_sweep_rows(self, small_suite):
        result = run_experiment("figure_3_5", cache=ResultCache(), suite=small_suite)
        assert isinstance(result.data, dict)
        assert result.rows == result.data["sweep"]

    def test_scalar_data_wraps_into_row(self):
        result = ExperimentResult(experiment_id="x", data=42)
        assert result.rows == [{"value": 42}]
