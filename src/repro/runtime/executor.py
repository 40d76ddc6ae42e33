"""Sweep execution: fan independent design points out over a process pool.

Every chapter repeats the same shape of loop -- evaluate a cross product of
(workload, configuration, topology, ...) points where each point is independent
of the others.  :class:`SweepExecutor` runs such a point list either serially
or on a :class:`concurrent.futures.ProcessPoolExecutor`, preserving submission
order in both modes so results are identical point-for-point.

Point functions must be module-level (picklable) and receive only picklable
arguments; all of the repo's model/config/workload dataclasses qualify.

Mode selection:

* ``mode="serial"`` / ``mode="process"`` force the backend.
* ``mode="auto"`` (default) consults the ``REPRO_EXECUTOR`` environment
  variable if set, otherwise uses a process pool only when the sweep has at
  least ``_MIN_PARALLEL_POINTS`` points and more than one CPU is available --
  small or cheap sweeps are not worth the pool startup.
* Pool creation failures (restricted sandboxes without working semaphores)
  fall back to the serial path, which always works.

Failures: a point's own exception reaches the caller unchanged from the one
run it had, whichever backend ran it.  Only a dead worker
(``BrokenProcessPool``) sends its chunks back to run serially in the parent.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable

#: Environment variable forcing the backend for ``mode="auto"`` executors.
EXECUTOR_ENV = "REPRO_EXECUTOR"
#: Environment variable capping pool size for ``max_workers=None`` executors.
MAX_WORKERS_ENV = "REPRO_MAX_WORKERS"

_MODES = ("auto", "serial", "process")

#: Chunks submitted per worker: enough slack for load balancing across uneven
#: points without per-point IPC overhead.
_CHUNKS_PER_WORKER = 4
#: Smallest sweep ``mode="auto"`` sends to a process pool.
_MIN_PARALLEL_POINTS = 4


def _run_chunk(
    fn: "Callable[..., object]",
    chunk: "list[tuple]",
    trace: bool,
    first_index: int,
    chunk_index: int,
) -> "tuple[list[object], list, dict[str, int]]":
    """Run one chunk of sweep points (module-level: picklable).

    Returns ``(results, span_roots, counter_totals)``.  With ``trace=True``
    the chunk runs under a fresh chunk-local
    :class:`~repro.obs.tracer.Tracer` -- one ``executor.chunk`` span wrapping
    one ``executor.point`` span per point -- whose spans and counters the
    parent :meth:`~repro.obs.tracer.Tracer.adopt`\\ s; untraced, both are
    empty.  Serial runs call this same function inline, so serial and
    parallel runs (and traces) share one structure.
    """
    if not trace:
        return [fn(*args) for args in chunk], [], {}
    from repro.obs.tracer import Tracer, use_tracer

    tracer = Tracer()
    results: "list[object]" = []
    with use_tracer(tracer):
        with tracer.span(
            "executor.chunk",
            category="executor",
            index=chunk_index,
            first_point=first_index,
            points=len(chunk),
        ):
            for offset, args in enumerate(chunk):
                with tracer.span(
                    "executor.point", category="executor", index=first_index + offset
                ):
                    results.append(fn(*args))
    return results, tracer.roots, tracer.counters()


class SweepExecutor:
    """Runs a list of independent sweep points, serially or in parallel.

    Sweeps run in contiguous chunks (one pool future per chunk instead of one
    per point), amortizing pickling and process-pool IPC; results come back
    flattened in submission order.
    """

    def __init__(self, mode: str = "auto", max_workers: "int | None" = None):
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {mode!r}")
        self.mode = mode
        self.max_workers = max_workers

    # ---------------------------------------------------------------- planning
    def resolved_mode(self, num_points: int) -> str:
        """The backend ("serial" or "process") used for a sweep of this size."""
        mode = self.mode
        if mode == "auto":
            forced = os.environ.get(EXECUTOR_ENV, "").strip().lower()
            if forced in ("serial", "process"):
                mode = forced
        if mode == "auto":
            parallel_worthwhile = (
                num_points >= _MIN_PARALLEL_POINTS and (os.cpu_count() or 1) > 1
            )
            mode = "process" if parallel_worthwhile else "serial"
        if mode == "process" and num_points <= 1:
            mode = "serial"
        return mode

    def _pool_size(self, num_points: int) -> int:
        if self.max_workers is not None:
            return max(1, self.max_workers)
        env = os.environ.get(MAX_WORKERS_ENV, "").strip()
        if env.isdigit() and int(env) > 0:
            return int(env)
        return max(1, min(num_points, os.cpu_count() or 1))

    # --------------------------------------------------------------- execution
    def map(
        self,
        fn: "Callable[..., object]",
        points: "Iterable[tuple | object]",
    ) -> "list[object]":
        """``[fn(*point) for point in points]``, possibly in parallel.

        Each point is an argument tuple (bare values are treated as 1-tuples).
        Results come back in submission order regardless of backend, so serial
        and parallel execution of a deterministic ``fn`` produce identical
        lists.  Under an enabled tracer the sweep is one ``executor.map`` span
        over per-chunk and per-point spans, adopted in submission order --
        never arrival order -- so the trace structure does not depend on the
        backend either.
        """
        arglists: "list[tuple]" = [
            point if isinstance(point, tuple) else (point,) for point in points
        ]
        from repro.obs.tracer import get_tracer

        tracer = get_tracer()
        trace = tracer.enabled
        mode = self.resolved_mode(len(arglists))
        workers = self._pool_size(len(arglists))
        size = max(1, -(-len(arglists) // (workers * _CHUNKS_PER_WORKER)))  # ceil
        plan = [
            (index, start, arglists[start : start + size])
            for index, start in enumerate(range(0, len(arglists), size))
        ]

        def run_inline(index: int, start: int, chunk: "list[tuple]") -> "list[object]":
            """Run one chunk in this process and adopt its spans."""
            handoff = tracer.now() if trace else None
            chunk_results, spans, counters = _run_chunk(fn, chunk, trace, start, index)
            tracer.adopt(spans, counters, offset_s=handoff)
            return chunk_results

        results: "list[object]" = []
        with tracer.span(
            "executor.map",
            category="executor",
            points=len(arglists),
            chunks=len(plan),
            chunksize=size,
            mode=mode,
        ) as map_span:
            pool = None
            if mode == "process":
                try:
                    pool = ProcessPoolExecutor(max_workers=workers)
                except (OSError, PermissionError):
                    # No usable multiprocessing primitives in this environment.
                    map_span.annotate(mode="serial-fallback")
            if pool is None:
                for index, start, chunk in plan:
                    results.extend(run_inline(index, start, chunk))
                return results
            try:
                handoff = tracer.now() if trace else None
                futures = [
                    pool.submit(_run_chunk, fn, chunk, trace, start, index)
                    for index, start, chunk in plan
                ]
                for (index, start, chunk), future in zip(plan, futures):
                    try:
                        chunk_results, spans, counters = future.result()
                    except BrokenProcessPool:
                        # A worker died and took its queued chunks with it; the
                        # points themselves may be fine, so run them here.
                        tracer.counter("executor.chunk_retries").add(1)
                        with tracer.span(
                            "executor.chunk_retry",
                            category="executor",
                            index=index,
                            first_point=start,
                            points=len(chunk),
                        ):
                            results.extend(run_inline(index, start, chunk))
                        continue
                    for span in spans:
                        span.attributes.setdefault("worker", index)
                    tracer.adopt(spans, counters, offset_s=handoff)
                    results.extend(chunk_results)
            finally:
                # On a point's failure, drop the chunks no worker has started.
                pool.shutdown(cancel_futures=True)
        return results


#: Serial executor for cheap analytic sweeps where a pool never pays off.
SERIAL_EXECUTOR = SweepExecutor(mode="serial")
