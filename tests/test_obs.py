"""Telemetry subsystem tests: spans, traces, envelopes, and the run ledger.

Covers the guarantees the observability layer advertises: nested spans are
well-formed, serial and parallel executions of the same sweep produce the
same trace *structure*, the disabled (null) tracer records nothing and leaves
simulation results bitwise identical, Chrome-trace exports satisfy the Trace
Event Format, and the JSONL ledger tolerates rotation and corruption.
"""

import json

import pytest

from repro.obs import (
    NULL_TRACER,
    Counter,
    Span,
    Tracer,
    chrome_trace,
    counter_deltas,
    get_tracer,
    telemetry_block,
    use_tracer,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.obs.ledger import (
    append_record,
    invocation_record,
    ledger_path,
    read_records,
    rotate,
    summarize,
)
from repro.runtime.executor import _CHUNKS_PER_WORKER, SweepExecutor


def _square(value):
    """Module-level sweep point function (process-pool picklable)."""
    return value * value


# ---------------------------------------------------------------- span trees
class TestTracer:
    def test_nested_spans_are_well_formed(self):
        tracer = Tracer()
        with tracer.span("outer", category="test", level=0) as outer:
            with tracer.span("inner.a", category="test") as inner:
                inner.annotate(level=1)
            with tracer.span("inner.b", category="test"):
                pass
        assert tracer.current() is None
        assert [span.name for span in tracer.iter_spans()] == [
            "outer", "inner.a", "inner.b",
        ]
        assert outer.children[0].attributes == {"level": 1}
        for span in tracer.iter_spans():
            assert span.duration_s >= 0.0
            for child in span.children:
                assert child.start_s >= span.start_s

    def test_finalize_assigns_deterministic_tree_path_ids(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
            with tracer.span("c"):
                pass
        with tracer.span("d"):
            pass
        tracer.finalize()
        assert [span.span_id for span in tracer.iter_spans()] == [
            "s0", "s0.0", "s0.1", "s1",
        ]
        tracer.finalize()  # idempotent
        assert tracer.roots[0].span_id == "s0"

    def test_counters_are_monotonic_and_sorted(self):
        tracer = Tracer()
        tracer.counter("b").add(2)
        tracer.counter("a").add()
        tracer.counter("b").add(3)
        assert tracer.counters() == {"a": 1, "b": 5}
        with pytest.raises(ValueError):
            Counter("x").add(-1)
        assert counter_deltas({"a": 5, "b": 1}, {"a": 2}) == {"a": 3, "b": 1}

    def test_adopt_shifts_and_merges(self):
        worker = Tracer()
        with worker.span("chunk"):
            worker.counter("points").add(4)
        parent = Tracer()
        with parent.span("map"):
            parent.adopt(worker.roots, worker.counters(), offset_s=10.0)
        assert parent.roots[0].children[0].name == "chunk"
        assert parent.roots[0].children[0].start_s >= 10.0
        assert parent.counters() == {"points": 4}

    def test_use_tracer_installs_and_restores(self):
        assert get_tracer() is NULL_TRACER
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
        assert get_tracer() is NULL_TRACER


class TestNullTracer:
    def test_null_tracer_records_nothing(self):
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("anything", category="x", a=1) as span:
            span.annotate(b=2)  # discarded
            NULL_TRACER.counter("n").add(5)
        assert NULL_TRACER.counters() == {}
        assert NULL_TRACER.finalize() == []
        assert list(NULL_TRACER.iter_spans()) == []

    def test_executor_under_null_tracer_adds_zero_spans(self):
        executor = SweepExecutor(mode="serial")
        results = executor.map(_square, [(i,) for i in range(6)])
        assert results == [0, 1, 4, 9, 16, 25]
        assert list(get_tracer().iter_spans()) == []


# --------------------------------------------------- serial == parallel trace
class TestExecutorTraceStructure:
    def _traced_map(self, mode):
        tracer = Tracer()
        executor = SweepExecutor(mode=mode, max_workers=2)
        with use_tracer(tracer):
            results = executor.map(_square, [(i,) for i in range(10)])
        tracer.finalize()
        return results, tracer

    def test_serial_and_parallel_traces_share_structure(self):
        serial_results, serial = self._traced_map("serial")
        parallel_results, parallel = self._traced_map("process")
        assert serial_results == parallel_results
        # `mode` (and the parallel-only `worker` tag) are the only attributes
        # allowed to differ between backends.
        prune = ("mode", "worker")
        serial_shape = [root.structure(prune) for root in serial.roots]
        parallel_shape = [root.structure(prune) for root in parallel.roots]
        assert serial_shape == parallel_shape
        assert [s.span_id for s in serial.iter_spans()] == [
            s.span_id for s in parallel.iter_spans()
        ]

    def test_trace_covers_every_point_in_index_order(self):
        _, tracer = self._traced_map("process")
        points = tracer.find_spans(name="executor.point")
        assert [span.attributes["index"] for span in points] == list(range(10))
        size = -(-10 // (2 * _CHUNKS_PER_WORKER))  # 10 points over 2 workers
        starts = list(range(0, 10, size))
        chunks = tracer.find_spans(name="executor.chunk")
        assert [span.attributes["first_point"] for span in chunks] == starts
        (map_span,) = tracer.find_spans(name="executor.map")
        assert map_span.attributes["points"] == 10
        assert map_span.attributes["chunks"] == len(starts)
        assert map_span.attributes["chunksize"] == size


# ------------------------------------------------------------- chrome export
class TestChromeTrace:
    def _sample_tracer(self):
        tracer = Tracer()
        with tracer.span("outer", category="test"):
            with tracer.span("inner", category="test", worker=1):
                tracer.counter("events").add(3)
        return tracer

    def test_chrome_trace_validates_and_round_trips(self, tmp_path):
        tracer = self._sample_tracer()
        payload = chrome_trace(tracer)
        assert validate_chrome_trace(payload) == len(payload["traceEvents"])
        phases = {event["ph"] for event in payload["traceEvents"]}
        assert {"M", "X", "C"} <= phases
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert names == {"outer", "inner"}
        path = tmp_path / "trace.json"
        write_chrome_trace(path, tracer)
        assert validate_chrome_trace(json.loads(path.read_text())) > 0

    def test_worker_attribute_maps_to_thread_id(self):
        payload = chrome_trace(self._sample_tracer())
        tids = {e["name"]: e["tid"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert tids["inner"] != tids["outer"]

    def test_validate_rejects_malformed_payloads(self):
        with pytest.raises(ValueError):
            validate_chrome_trace({"not": "a trace"})
        with pytest.raises(ValueError):
            validate_chrome_trace({"traceEvents": [{"ph": "X", "name": "x"}]})


# ---------------------------------------------------------- telemetry blocks
class TestTelemetryBlock:
    def test_disabled_tracer_yields_no_block(self):
        assert telemetry_block(NULL_TRACER) is None

    def test_block_carries_counters_cache_and_phases(self):
        tracer = Tracer()
        with tracer.span("experiment.x", category="experiment") as span:
            with tracer.span("cache.fetch", category="cache"):
                tracer.counter("cache.result.hits").add(3)
                tracer.counter("cache.result.misses").add(1)
        block = telemetry_block(tracer, span=span)
        assert block["counters"] == {"cache.result.hits": 3, "cache.result.misses": 1}
        assert block["cache"]["result"] == {
            "hits": 3, "misses": 1, "stores": 0, "hit_ratio": 0.75,
        }
        assert [phase["name"] for phase in block["phases"]] == ["cache.fetch"]


# ------------------------------------------------------------------- results
class TestResultIdentity:
    def test_traced_and_untraced_runs_produce_identical_data(self):
        from repro.experiments.registry import run_experiment

        untraced = run_experiment("table_4_1", use_cache=False)
        with use_tracer(Tracer()):
            traced = run_experiment("table_4_1", use_cache=False)
        assert json.dumps(untraced.data, sort_keys=True) == json.dumps(
            traced.data, sort_keys=True
        )
        assert untraced.telemetry is None
        assert traced.telemetry is not None
        assert traced.compute_time_s > 0.0

    def test_untraced_envelope_has_no_telemetry_key(self):
        from repro.experiments.registry import run_experiment
        from repro.runtime.cli import _envelope

        envelope = _envelope(run_experiment("table_4_1", use_cache=False))
        assert "telemetry" not in envelope
        assert "compute_time_s" in envelope

    def test_cache_stats_exposed_without_tracer(self):
        from repro.runtime.cache import ResultCache

        cache = ResultCache()
        assert cache.get("k") is None
        cache.put("k", {"v": 1})
        assert cache.get("k") == {"v": 1}
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["stores"] == 1
        assert stats["categories"]["result"]["hits"] == 1

    def test_warm_evaluation_cache_hits_every_candidate(self):
        from repro.dse.pareto import Objective
        from repro.dse.explorer import Explorer
        from repro.dse.space import Axis, DesignSpace

        space = DesignSpace(
            axes=(Axis("cores_per_pod", (8, 16)), Axis("llc_per_pod_mb", (2.0, 4.0)))
        )
        explorer = Explorer(
            space,
            objectives=(Objective.minimize("die_area_mm2"),),
            evaluator="chip",
        )
        candidates = space.enumerate()
        explorer._evaluate(candidates)  # noqa: SLF001 - warm the cache
        tracer = Tracer()
        with use_tracer(tracer):
            _, hits = explorer._evaluate(candidates)  # noqa: SLF001
        assert hits == len(candidates)
        counters = tracer.counters()
        assert counters["cache.evaluation.hits"] == len(candidates)
        assert "cache.evaluation.misses" not in counters


# ------------------------------------------------------------ overhead budget
#: Maximum tolerated tracer-enabled slowdown, percent of the disabled wall.
TRACER_OVERHEAD_LIMIT_PCT = 5.0


class TestTracerOverhead:
    """Instrumentation stays under its 5% budget on the two traced hot loops.

    Each attempt times one uncached run with the tracer disabled, then one
    under a throwaway :class:`Tracer`.  Timing noise on sub-second runs can
    exceed the budget spuriously, so up to three attempts run and the best
    (lowest-overhead) sample is judged.
    """

    @pytest.mark.parametrize(
        "experiment_id, overrides",
        [
            ("figure_4_6", {"duration_cycles": 600}),
            ("service_latency_sweep", {"num_requests": 1200}),
        ],
    )
    def test_tracer_overhead_within_budget(self, experiment_id, overrides):
        from repro.experiments.registry import run_experiment

        def wall():
            return round(
                run_experiment(experiment_id, use_cache=False, **overrides).wall_time_s, 6
            )

        # One untimed run first, so process-level memos (built topologies,
        # traffic batches) are warm for both sides of every attempt.
        wall()
        samples = []
        for _ in range(3):
            disabled = wall()
            with use_tracer(Tracer()):
                enabled = wall()
            overhead_pct = round((enabled - disabled) / max(disabled, 1e-9) * 100.0, 2)
            samples.append((overhead_pct, disabled, enabled))
            if overhead_pct < TRACER_OVERHEAD_LIMIT_PCT:
                break
        overhead_pct, disabled, enabled = min(samples)
        assert overhead_pct < TRACER_OVERHEAD_LIMIT_PCT, (
            f"{experiment_id}: tracer overhead {overhead_pct}% exceeds the "
            f"{TRACER_OVERHEAD_LIMIT_PCT}% budget after {len(samples)} attempts "
            f"(disabled={disabled}s enabled={enabled}s)"
        )


# -------------------------------------------------------------------- ledger
class TestLedger:
    def _record(self, experiment="table_4_1", status="miss"):
        return invocation_record(
            "run",
            [{"experiment": experiment, "cache_status": status,
              "wall_time_s": 0.5, "compute_time_s": 0.4, "rows": 3}],
            argv=["run", experiment],
        )

    def test_append_and_read_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
        path = append_record(self._record())
        assert path == ledger_path()
        records = read_records()
        assert len(records) == 1
        record = records[0]
        assert record["command"] == "run"
        assert record["experiments"] == ["table_4_1"]
        assert record["cache_hit_ratio"] == 0.0
        assert record["schema"] == 1

    def test_rotation_bounds_the_file(self, tmp_path):
        directory = tmp_path / "ledger"
        for index in range(7):
            append_record(
                self._record(experiment=f"e{index}"),
                directory=directory,
                max_records=4,
            )
        records = read_records(ledger_path(directory))
        assert len(records) == 4
        assert [r["experiments"][0] for r in records] == ["e3", "e4", "e5", "e6"]
        assert rotate(ledger_path(directory), keep_last=2) == 2
        assert len(read_records(ledger_path(directory))) == 2

    def test_corrupt_lines_are_tolerated(self, tmp_path):
        directory = tmp_path / "ledger"
        append_record(self._record(experiment="good"), directory=directory)
        path = ledger_path(directory)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{truncated json\n")
            handle.write("[1, 2, 3]\n")  # valid JSON but not a record dict
        append_record(self._record(experiment="later"), directory=directory)
        records = read_records(path)
        assert [r["experiments"][0] for r in records] == ["good", "later"]

    def test_unwritable_directory_degrades_to_none(self, tmp_path):
        blocked = tmp_path / "file-not-dir"
        blocked.write_text("occupied")
        assert append_record(self._record(), directory=blocked) is None

    def test_summarize_and_filters(self, tmp_path):
        directory = tmp_path / "ledger"
        append_record(self._record(experiment="a", status="miss"), directory=directory)
        append_record(self._record(experiment="a", status="hit"), directory=directory)
        append_record(self._record(experiment="b", status="hit"), directory=directory)
        path = ledger_path(directory)
        assert len(read_records(path, experiment="a")) == 2
        assert len(read_records(path, last=1)) == 1
        summary = summarize(read_records(path))
        assert summary["invocations"] == 3
        assert summary["commands"] == {"run": 3}
        by_id = {row["experiment"]: row for row in summary["experiments"]}
        assert by_id["a"]["invocations"] == 2
        assert by_id["a"]["cache_hit_ratio"] == 0.5
        assert by_id["b"]["cache_hit_ratio"] == 1.0

    def test_explore_runs_roll_evaluation_hits_into_the_record(self):
        record = invocation_record(
            "explore",
            [{"experiment": "explore_pod_40nm", "cache_status": "miss",
              "wall_time_s": 2.0, "compute_time_s": 1.9, "rows": 64,
              "strategy": "ga", "cache_hits": 64, "evaluated": 0}],
        )
        assert record["strategy"] == "ga"
        assert record["cache_hits"] == 64
        assert record["cache_misses"] == 1  # the envelope-level miss
        assert record["cache_hit_ratio"] == round(64 / 65, 4)


# ------------------------------------------------------------ CLI round trip
class TestCliTelemetry:
    def test_trace_flag_emits_valid_trace_and_ledger_record(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.runtime.cli import main

        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
        trace_path = tmp_path / "trace.json"
        code = main(["run", "table_4_1", "--no-cache", "--json",
                     "--trace", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        envelope = json.loads(out)
        # --no-cache means no cache counters; the block itself must be there.
        assert set(envelope["telemetry"]) == {"counters", "cache", "phases"}
        payload = json.loads(trace_path.read_text())
        assert validate_chrome_trace(payload) > 0
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert "cli.run" in names
        assert "experiment.table_4_1" in names
        records = read_records()
        assert len(records) == 1
        assert records[0]["command"] == "run"
        assert records[0]["argv"][:2] == ["run", "table_4_1"]

    def test_untraced_cli_restores_null_tracer_and_still_ledgers(
        self, capsys, tmp_path, monkeypatch
    ):
        from repro.runtime.cli import main

        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
        code = main(["run", "table_4_1", "--no-cache", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        assert "telemetry" not in json.loads(out)
        assert get_tracer() is NULL_TRACER
        assert len(read_records()) == 1

    def test_stats_summarizes_the_ledger(self, capsys, tmp_path, monkeypatch):
        from repro.runtime.cli import main

        monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))
        assert main(["run", "table_4_1", "--no-cache"]) == 0
        capsys.readouterr()
        assert main(["stats", "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["invocations"] == 1
        assert summary["experiments"][0]["experiment"] == "table_4_1"
        assert main(["stats", "--experiment", "nonexistent"]) == 1
