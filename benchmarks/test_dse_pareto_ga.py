"""Benchmark: the vectorized Pareto kernel and the GA search driver.

Beyond-paper machinery: docs/dse.md describes the search strategies and
docs/performance.md the recorded ``BENCH_dse.json`` baseline.
"""

import random

from repro.dse.pareto import Objective, pareto_numpy
from repro.dse.studies import explore_pod_40nm

KERNEL_ROWS = 20_000


def _synthetic_rows(count, seed=0):
    rng = random.Random(seed)
    return [
        {
            "group": rng.choice(("x", "y")),
            "throughput": rng.random(),
            "efficiency": rng.random(),
            "cost": rng.random(),
        }
        for _ in range(count)
    ]


def test_pareto_kernel(benchmark):
    """Frontier extraction over 20k synthetic rows through the numpy kernel."""
    rows = _synthetic_rows(KERNEL_ROWS)
    objectives = (
        Objective.maximize("throughput"),
        Objective.maximize("efficiency"),
        Objective.minimize("cost"),
    )
    frontier = benchmark.pedantic(
        lambda: pareto_numpy(rows, objectives, group_by="group"),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert 0 < len(frontier) < KERNEL_ROWS


def test_ga_search(benchmark):
    """GA search of the pod space recovers both knees within a 48-eval budget."""
    payload = benchmark.pedantic(
        lambda: explore_pod_40nm(
            strategy="ga", budget=48, seed=0, use_evaluation_cache=False
        ),
        rounds=1, iterations=1, warmup_rounds=0,
    )
    assert set(payload["knees"]) == {"ooo", "inorder"}
    assert payload["stats"]["candidates"] <= 48
