"""Tests for the search drivers and the vectorized Pareto kernel."""

import json
import random

import pytest

from oracles.pareto import pareto_frontier_reference
from repro.dse import (
    Axis,
    Constraint,
    DesignSpace,
    Explorer,
    Objective,
    frontier_2d,
    pareto_frontier,
)
from repro.dse.search import (
    STRATEGIES,
    GaConfig,
    GeneticSearch,
    SuccessiveHalving,
    is_rankable,
    rank_rows,
    run_proxy,
)
from repro.dse.studies import explore_pod_40nm, explore_pod_scale
from repro.runtime.cache import ResultCache
from repro.runtime.executor import SweepExecutor

OBJECTIVES_3 = (
    Objective.maximize("a"),
    Objective.maximize("b"),
    Objective.minimize("c"),
)


def random_rows(count, seed, groups=("x", "y"), duplicate_every=7):
    """Seeded random metric rows with deliberate exact-duplicate injections."""
    rng = random.Random(seed)
    rows = []
    for index in range(count):
        if duplicate_every and index % duplicate_every == duplicate_every - 1 and rows:
            donor = rng.choice(rows)
            rows.append({**donor, "g": rng.choice(groups)})
        else:
            rows.append(
                {
                    "g": rng.choice(groups),
                    "a": rng.random(),
                    "b": rng.random(),
                    "c": rng.random(),
                }
            )
    return rows


def chip_space(**overrides):
    axes = {
        "core_type": ("ooo", "inorder"),
        "cores_per_pod": (8, 16, 32),
        "llc_per_pod_mb": (2.0, 4.0),
        "pods_per_chip": (1, 2, 3),
        "node": ("40nm",),
        "interconnect": ("crossbar",),
    }
    axes.update(overrides)
    return DesignSpace(axes=tuple(Axis(k, v) for k, v in axes.items()))


def chip_explorer(space=None, **kwargs):
    kwargs.setdefault("cache", ResultCache())
    return Explorer(
        space or chip_space(),
        objectives=(
            Objective.maximize("performance_density"),
            Objective.maximize("performance_per_watt"),
        ),
        group_by="core_type",
        **kwargs,
    )


# ------------------------------------------------------------- pareto kernel
class TestParetoKernelEquivalence:
    def assert_equivalent(self, rows, objectives, group_by=None):
        fast = pareto_frontier(rows, objectives, group_by)
        slow = pareto_frontier_reference(rows, objectives, group_by)
        assert [id(r) for r in fast] == [id(r) for r in slow]

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("count", (0, 1, 2, 3, 17, 200))
    def test_matches_reference_on_random_data(self, seed, count):
        rows = random_rows(count, seed)
        self.assert_equivalent(rows, OBJECTIVES_3)
        self.assert_equivalent(rows, OBJECTIVES_3, group_by="g")

    def test_single_objective(self):
        rows = random_rows(50, seed=9)
        self.assert_equivalent(rows, (Objective.minimize("c"),))

    def test_exact_duplicates_all_survive(self):
        rows = [{"a": 1.0, "b": 2.0, "c": 3.0} for _ in range(4)]
        frontier = pareto_frontier(rows, OBJECTIVES_3)
        assert len(frontier) == 4
        self.assert_equivalent(rows, OBJECTIVES_3)

    def test_degenerate_objective_contributes_nothing(self):
        rows = [{"a": 1.0, "b": float(i), "c": 0.0} for i in range(6)]
        frontier = pareto_frontier(rows, OBJECTIVES_3)
        assert frontier == [rows[-1]]
        self.assert_equivalent(rows, OBJECTIVES_3)

    def test_every_group_size_one(self):
        rows = [{"g": str(i), "a": float(i), "b": 0.0, "c": 0.0} for i in range(5)]
        frontier = pareto_frontier(rows, OBJECTIVES_3, group_by="g")
        assert len(frontier) == 5
        self.assert_equivalent(rows, OBJECTIVES_3, group_by="g")

    def test_preserves_input_order(self):
        rows = random_rows(120, seed=4)
        frontier = pareto_frontier(rows, OBJECTIVES_3)
        by_identity = {id(row): position for position, row in enumerate(rows)}
        positions = [by_identity[id(row)] for row in frontier]
        assert positions == sorted(positions)

    def test_zero_objectives_rejected(self):
        with pytest.raises(ValueError, match="at least one objective"):
            pareto_frontier([{"a": 1.0}], ())

    def test_auto_method_falls_back_on_non_finite(self):
        rows = [{"a": 1.0}, {"a": float("nan")}]
        auto = pareto_frontier(rows, (Objective.maximize("a"),))
        assert auto == pareto_frontier_reference(rows, (Objective.maximize("a"),))


class TestFrontier2dGuards:
    def test_missing_metric_names_metric_and_row(self):
        rows = [{"a": 1.0, "b": 2.0}, {"b": 3.0}]
        with pytest.raises(KeyError, match=r"row 1 has no 'a' metric"):
            frontier_2d(rows, x=Objective.minimize("a"), y=Objective.minimize("b"))

    def test_uncastable_value_names_metric_and_row(self):
        rows = [{"a": 1.0, "b": 2.0}, {"a": None, "b": 3.0}]
        with pytest.raises(TypeError, match=r"row 1 metric 'a' value None"):
            frontier_2d(rows, x=Objective.minimize("a"), y=Objective.minimize("b"))

    def test_valid_input_sorted_by_x(self):
        rows = [{"a": 3.0, "b": 1.0}, {"a": 1.0, "b": 3.0}, {"a": 2.0, "b": 2.0}]
        frontier = frontier_2d(rows, x=Objective.minimize("a"), y=Objective.minimize("b"))
        assert [r["a"] for r in frontier] == [1.0, 2.0, 3.0]


# ---------------------------------------------------------- streaming sample
class TestStreamingSample:
    def space(self):
        return DesignSpace(
            axes=(
                Axis("a", tuple(range(10))),
                Axis("b", ("x", "y", "z")),
                Axis("c", (1.0, 2.0)),
            ),
            constraints=(
                Constraint("no_a7_z", lambda p: not (p["a"] == 7 and p["b"] == "z")),
            ),
        )

    def test_feasible_count_matches_enumeration(self):
        space = self.space()
        assert space.feasible_count() == len(space.enumerate()) == 58

    def test_sample_picks_are_pinned(self):
        # Regression pin: the streaming rewrite must reproduce the picks the
        # materialized implementation made for these seeds.
        space = self.space()
        assert space.sample(5, seed=7) == [
            {"a": 0, "b": "y", "c": 2.0},
            {"a": 1, "b": "y", "c": 2.0},
            {"a": 3, "b": "y", "c": 1.0},
            {"a": 4, "b": "x", "c": 2.0},
            {"a": 6, "b": "z", "c": 2.0},
        ]
        assert space.sample(3, seed=0) == [
            {"a": 4, "b": "x", "c": 1.0},
            {"a": 8, "b": "y", "c": 1.0},
            {"a": 9, "b": "y", "c": 1.0},
        ]

    def test_single_axis_sample_pinned(self):
        space = DesignSpace(axes=(Axis("a", tuple(range(50))),))
        picks = [c["a"] for c in space.sample(10, seed=3)]
        assert picks == [4, 8, 15, 23, 30, 34, 37, 38, 40, 48]

    def test_oversized_sample_returns_everything(self):
        space = self.space()
        assert space.sample(1000, seed=0) == space.enumerate()

    def test_sample_preserves_enumeration_order(self):
        space = self.space()
        order = {json.dumps(c, sort_keys=True): i for i, c in enumerate(space.enumerate())}
        picks = [order[json.dumps(c, sort_keys=True)] for c in space.sample(20, seed=11)]
        assert picks == sorted(picks)


# ------------------------------------------------------------------- ranking
class TestRanking:
    def test_is_rankable_rejects_missing_and_non_finite(self):
        objectives = (Objective.maximize("a"),)
        assert is_rankable({"a": 1.0}, objectives, ())
        assert not is_rankable({"b": 1.0}, objectives, ())
        assert not is_rankable({"a": float("nan")}, objectives, ())
        never = Constraint("never", lambda m: False)
        assert not is_rankable({"a": 1.0}, objectives, (never,))

    def test_rank_orders_frontier_before_dominated(self):
        rows = [{"a": 1.0}, {"a": 3.0}, {"a": 2.0}]
        fitness = rank_rows(rows, (Objective.maximize("a"),), None)
        assert fitness[1] < fitness[2] < fitness[0]

    def test_infeasible_rows_rank_last(self):
        rows = [{"a": 5.0, "ok": False}, {"a": 1.0, "ok": True}]
        ok = Constraint("ok", lambda m: bool(m["ok"]))
        fitness = rank_rows(rows, (Objective.maximize("a"),), None, (ok,))
        assert fitness[1] < fitness[0]


# ------------------------------------------------------------------- proxies
class TestProxies:
    def test_chip_proxy_reports_objective_metrics(self):
        params = {
            "core_type": "ooo",
            "cores_per_pod": 16,
            "llc_per_pod_mb": 4.0,
            "pods_per_chip": 2,
            "node": "40nm",
            "interconnect": "crossbar",
        }
        metrics = run_proxy("chip", params, fidelity=1)
        for key in ("performance", "performance_density", "performance_per_watt"):
            assert metrics[key] > 0
        assert isinstance(metrics["fits_budgets"], bool)

    def test_fidelity_changes_the_estimate_but_not_feasibility_keys(self):
        params = {
            "core_type": "inorder",
            "cores_per_pod": 32,
            "llc_per_pod_mb": 2.0,
            "pods_per_chip": 3,
            "node": "40nm",
            "interconnect": "crossbar",
        }
        low = run_proxy("chip", params, fidelity=1)
        high = run_proxy("chip", params, fidelity=100)
        assert set(low) == set(high)

    def test_unknown_proxy_rejected(self):
        with pytest.raises(KeyError):
            run_proxy("nope", {}, fidelity=1)


# ------------------------------------------------------------------ searches
class TestGeneticSearch:
    def test_same_seed_same_budget_identical_payload(self):
        results = [
            chip_explorer().explore(strategy="ga", budget=20, seed=5) for _ in range(2)
        ]
        assert results[0].rows == results[1].rows
        assert results[0].frontier == results[1].frontier
        assert results[0].knees == results[1].knees

    def test_different_seeds_walk_different_candidates(self):
        a = chip_explorer().explore(strategy="ga", budget=20, seed=0)
        b = chip_explorer().explore(strategy="ga", budget=20, seed=1)
        assert [r["candidate"] for r in a.rows] != [r["candidate"] for r in b.rows]

    def test_budget_bounds_unique_evaluations(self):
        result = chip_explorer().explore(strategy="ga", budget=13, seed=2)
        assert len(result.rows) <= 13
        labels = [row["candidate"] for row in result.rows]
        assert len(labels) == len(set(labels))

    def test_serial_and_parallel_identical(self):
        cache = ResultCache()
        serial = chip_explorer(
            executor=SweepExecutor(mode="serial"), cache=cache
        ).explore(strategy="ga", budget=16, seed=3)
        parallel = chip_explorer(
            executor=SweepExecutor(mode="process", max_workers=2), cache=ResultCache()
        ).explore(strategy="ga", budget=16, seed=3)
        assert json.dumps(serial.payload(), sort_keys=True) == json.dumps(
            parallel.payload(), sort_keys=True
        )

    def test_warm_cache_rerun_is_identical_with_zero_evaluations(self):
        cache = ResultCache()
        cold = chip_explorer(cache=cache).explore(strategy="ga", budget=16, seed=0)
        warm = chip_explorer(cache=cache).explore(strategy="ga", budget=16, seed=0)
        assert warm.stats["evaluated"] == 0
        assert warm.stats["cache_hits"] == len(warm.rows)
        cold_payload, warm_payload = cold.payload(), warm.payload()
        cold_payload.pop("stats"), warm_payload.pop("stats")
        assert warm_payload == cold_payload

    def test_stats_carry_strategy_and_budget(self):
        result = chip_explorer().explore(strategy="ga", budget=12, seed=1)
        assert result.stats["strategy"] == "ga"
        assert result.stats["budget"] == 12
        assert result.stats["seed"] == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GaConfig(population_size=0)
        with pytest.raises(ValueError):
            GaConfig(elite=10, population_size=4)
        with pytest.raises(ValueError):
            GaConfig(mutation_rate=1.5)

    def test_driver_rejects_bad_budget(self):
        with pytest.raises(ValueError, match="budget"):
            GeneticSearch(chip_explorer(), budget=0)


class TestSuccessiveHalving:
    def test_same_seed_identical_and_within_budget(self):
        results = [
            chip_explorer().explore(strategy="halving", budget=15, seed=4)
            for _ in range(2)
        ]
        assert results[0].rows == results[1].rows
        assert results[0].knees == results[1].knees
        assert len(results[0].rows) <= 15

    def test_serial_and_parallel_identical(self):
        serial = chip_explorer(executor=SweepExecutor(mode="serial")).explore(
            strategy="halving", budget=12, seed=0
        )
        parallel = chip_explorer(
            executor=SweepExecutor(mode="process", max_workers=2)
        ).explore(strategy="halving", budget=12, seed=0)
        assert json.dumps(serial.payload(), sort_keys=True) == json.dumps(
            parallel.payload(), sort_keys=True
        )

    def test_stats_record_pool_and_rungs(self):
        result = chip_explorer().explore(strategy="halving", budget=10, seed=0)
        assert result.stats["strategy"] == "halving"
        assert result.stats["pool"] >= 10
        assert result.stats["proxy_evaluations"] >= result.stats["pool"]

    def test_keeps_both_frontier_groups(self):
        result = chip_explorer().explore(strategy="halving", budget=10, seed=0)
        assert {row["core_type"] for row in result.rows} == {"ooo", "inorder"}

    def test_driver_rejects_bad_eta_and_pool(self):
        with pytest.raises(ValueError, match="eta"):
            SuccessiveHalving(chip_explorer(), budget=8, eta=1)
        with pytest.raises(ValueError, match="pool_size"):
            SuccessiveHalving(chip_explorer(), budget=8, pool_size=4)


class TestExplorerStrategyDispatch:
    def test_strategy_names(self):
        assert STRATEGIES == ("exhaustive", "ga", "halving")

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            chip_explorer().explore(strategy="annealing")

    def test_budget_rejected_for_exhaustive(self):
        with pytest.raises(ValueError, match="budget"):
            chip_explorer().explore(budget=10)

    def test_exhaustive_stats_tagged(self):
        result = chip_explorer().explore()
        assert result.stats["strategy"] == "exhaustive"


# ------------------------------------------------------------------- studies
class TestSearchStudies:
    def test_ga_recovers_exhaustive_knees_within_quarter_budget(self):
        exhaustive = explore_pod_40nm(use_evaluation_cache=False)
        searched = explore_pod_40nm(
            strategy="ga", budget=48, seed=0, use_evaluation_cache=False
        )
        space_size = exhaustive["stats"]["space_size"]
        assert searched["stats"]["candidates"] <= space_size // 4
        assert {k: v["candidate"] for k, v in searched["knees"].items()} == {
            k: v["candidate"] for k, v in exhaustive["knees"].items()
        }

    def test_halving_recovers_exhaustive_knees_within_quarter_budget(self):
        exhaustive = explore_pod_40nm(use_evaluation_cache=False)
        searched = explore_pod_40nm(
            strategy="halving", budget=48, seed=0, use_evaluation_cache=False
        )
        assert searched["stats"]["candidates"] <= exhaustive["stats"]["space_size"] // 4
        assert {k: v["candidate"] for k, v in searched["knees"].items()} == {
            k: v["candidate"] for k, v in exhaustive["knees"].items()
        }

    def test_pod_scale_space_exceeds_100k_and_rejects_exhaustive(self):
        with pytest.raises(ValueError, match="exhaustive") as excinfo:
            explore_pod_scale(strategy="exhaustive")
        assert "110592" in str(excinfo.value)

    def test_pod_scale_runs_under_a_search_budget(self):
        payload = explore_pod_scale(
            strategy="halving", budget=12, seed=0, use_evaluation_cache=False
        )
        assert payload["stats"]["space_size"] >= 100_000
        assert payload["stats"]["candidates"] <= 12
        assert payload["knees"]
