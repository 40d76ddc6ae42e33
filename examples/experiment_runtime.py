"""Driving the experiment runtime programmatically.

Shows the spec catalog (lookup by chapter/kind), the result envelope returned
by ``run_experiment`` (rows + provenance + wall time + cache status), the
shared result cache (the second run is free, and Figures 5.1/5.2 share one
computation), and the parallel sweep executor.

The same operations are available from the command line::

    python -m repro list --chapter 4
    python -m repro run figure_4_6 --parallel
    python -m repro sweep figure_2_2 --set "llc_sizes_mb=(1,4),(1,8)"
    python -m repro run figure_4_6 --no-cache   # prints wall= per experiment

Run with ``python examples/experiment_runtime.py``.
"""

from repro.experiments.formatting import format_table
from repro.experiments.registry import CATALOG, run_experiment
from repro.runtime import SweepExecutor


def main() -> None:
    print("Chapter 4 artifacts in the catalog:")
    for spec in CATALOG.by_chapter(4):
        print(f"  {spec.experiment_id:12s} [{spec.kind}]  {spec.produces}")
    print()

    # First run computes (fanning the NoC sweep over a process pool), the
    # second is served from the in-process result cache.
    executor = SweepExecutor(mode="process")
    first = run_experiment("figure_4_6", duration_cycles=3000, executor=executor)
    again = run_experiment("figure_4_6", duration_cycles=3000, executor=executor)
    print(format_table(first.rows, title="Figure 4.6 (normalized to mesh)"))
    print(f"first run:  cache={first.cache_status} wall={first.wall_time_s:.2f}s")
    print(f"second run: cache={again.cache_status} wall={again.wall_time_s:.2f}s")
    print()

    # Figures 5.1 and 5.2 are two views of one computation; the cache runs the
    # shared function once.
    perf = run_experiment("figure_5_1")
    tco = run_experiment("figure_5_2")
    print(f"figure_5_1: cache={perf.cache_status}, figure_5_2: cache={tco.cache_status}")


if __name__ == "__main__":
    main()
