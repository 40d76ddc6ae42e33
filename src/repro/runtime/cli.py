"""Command-line driver for the experiment runtime (``python -m repro``).

Subcommands:

* ``list`` -- enumerate the catalog, optionally filtered by chapter or kind.
* ``run`` -- run one or more experiments and print their tables.
* ``sweep`` -- cross-product parameter sweep over one experiment.
* ``explore`` -- run a design-space exploration and print its Pareto frontier.
* ``report`` -- grade every registered paper claim and render the
  reproduction report (exit code 1 if any claim grades ``fail``).
* ``stats`` -- summarize the append-only run ledger (one record per
  ``run``/``sweep``/``explore``/``report`` invocation).

``run`` and ``sweep`` accept repeated ``--set key=value`` overrides (values are
parsed as Python literals when possible); ``sweep`` splits comma-separated
values into sweep axes.  A key the experiment function does not take is
rejected before anything runs.  Results flow through the shared result cache;
pass ``--cache-dir`` to persist them across invocations or ``--no-cache`` to
disable caching entirely.  Every running subcommand accepts
``--trace out.json`` to record a Chrome-trace/Perfetto span timeline of the
invocation (see ``docs/observability.md``).
"""

from __future__ import annotations

import argparse
import ast
import inspect
import itertools
import json
import sys
from typing import Iterable, Sequence

from repro.runtime.cache import ResultCache, evaluation_overrides
from repro.runtime.catalog import UnknownExperimentError
from repro.runtime.executor import SweepExecutor


def _parse_literal(text: str) -> object:
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _parse_overrides(pairs: "Sequence[str]") -> "dict[str, object]":
    overrides: "dict[str, object]" = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--set expects key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        overrides[key.strip()] = _parse_literal(value.strip())
    return overrides


def _split_axis_values(text: str) -> "list[str]":
    """Split on top-level commas only, so tuple/list literals stay intact."""
    values, depth, current = [], 0, []
    for char in text:
        if char in "([{":
            depth += 1
        elif char in ")]}":
            depth -= 1
        if char == "," and depth == 0:
            values.append("".join(current))
            current = []
        else:
            current.append(char)
    values.append("".join(current))
    return [v.strip() for v in values if v.strip()]


def _parse_axes(pairs: "Sequence[str]") -> "dict[str, list[object]]":
    axes: "dict[str, list[object]]" = {}
    for pair in pairs:
        if "=" not in pair:
            raise SystemExit(f"--set expects key=v1,v2,..., got {pair!r}")
        key, _, values = pair.partition("=")
        axes[key.strip()] = [_parse_literal(v) for v in _split_axis_values(values)]
    return axes


def _check_override_keys(experiment_id: str, keys: "Iterable[str]") -> None:
    """Exit with one line naming the first key ``experiment_id`` does not take.

    Called before any experiment starts, so a mistyped ``--set`` key never
    costs a partial run or ends in a traceback.
    """
    from repro.experiments.registry import CATALOG

    accepted = CATALOG.get(experiment_id).accepted_parameters()
    if accepted is None:
        return
    for key in keys:
        if key not in accepted:
            raise SystemExit(
                f"error: {experiment_id} takes no parameter {key!r}; "
                f"accepted: {', '.join(accepted) or 'none'}"
            )


def _executor_for(args: argparse.Namespace) -> "SweepExecutor | None":
    if getattr(args, "parallel", False):
        return SweepExecutor(mode="process", max_workers=getattr(args, "workers", None))
    if getattr(args, "serial", False):
        return SweepExecutor(mode="serial")
    return None


def _cache_for(args: argparse.Namespace) -> "ResultCache | None":
    """The cache selected by the flags; ``None`` means the process default."""
    if getattr(args, "no_cache", False):
        return None
    if getattr(args, "cache_dir", None):
        return ResultCache(cache_dir=args.cache_dir)
    return None


#: Per-invocation run log the ledger record is built from; ``main`` installs a
#: list here so ``_run_one`` (and the report command) can contribute entries.
_RUN_LOG: "list[dict[str, object]] | None" = None


def _log_run(entry: "dict[str, object]") -> None:
    """Record one experiment run for this invocation's ledger record."""
    if _RUN_LOG is not None:
        _RUN_LOG.append(entry)


def _run_one(
    experiment_id: str,
    args: argparse.Namespace,
    cache: "ResultCache | None" = None,
    **extra: object,
):
    from repro.experiments.registry import CATALOG, run_experiment

    overrides = dict(_parse_overrides(getattr(args, "set", []) or []))
    overrides.update(extra)
    function = CATALOG.get(experiment_id).function
    executor = _executor_for(args)
    parameters = inspect.signature(function).parameters
    if executor is not None and "executor" in parameters:
        overrides["executor"] = executor
    # --node retargets any node-aware experiment: single-node functions take
    # `node`, family sweeps take `nodes` (restricted to the one requested).
    node = getattr(args, "node", None)
    if node is not None:
        if "node" in parameters:
            overrides.setdefault("node", node)
        elif "nodes" in parameters:
            overrides.setdefault("nodes", (node,))
        else:
            raise SystemExit(
                f"{experiment_id!r} is not node-parameterized; "
                "--node needs an experiment with a `node` or `nodes` parameter"
            )
    # Cache-aware experiments (the explore studies) memoize their internal
    # model evaluations too; forward the cache flags so --no-cache really
    # recomputes and --cache-dir persists evaluations across processes.
    cache = cache if cache is not None else _cache_for(args)
    use_cache = not getattr(args, "no_cache", False)
    for name, value in evaluation_overrides(function, use_cache, cache).items():
        overrides.setdefault(name, value)
    result = run_experiment(
        experiment_id,
        use_cache=not getattr(args, "no_cache", False),
        cache=cache,
        **overrides,
    )
    entry: "dict[str, object]" = {
        "experiment": result.experiment_id,
        "cache_status": result.cache_status,
        "wall_time_s": round(result.wall_time_s, 6),
        "compute_time_s": round(result.compute_time_s, 6),
        "rows": len(result.rows),
    }
    stats = result.data.get("stats") if isinstance(result.data, dict) else None
    if isinstance(stats, dict) and "cache_hits" in stats:
        entry["strategy"] = stats.get("strategy")
        entry["cache_hits"] = stats.get("cache_hits")
        entry["evaluated"] = stats.get("evaluated")
    if "fault_schedule_digest" in result.provenance:
        # Faulted runs stay reproducible from `repro stats`: the ledger record
        # carries the generator seed and the fault-schedule digest.
        entry["fault_seed"] = result.provenance.get("fault_seed")
        entry["fault_schedule_digest"] = result.provenance["fault_schedule_digest"]
    _log_run(entry)
    return result


def _envelope(result) -> "dict[str, object]":
    """Full machine-readable view of an ``ExperimentResult``.

    Carries the provenance, wall time, and cache status alongside the rows so
    scripts and CI can consume runs without parsing tables.
    """
    payload: "dict[str, object]" = {
        "experiment": result.experiment_id,
        "rows": result.rows,
        "provenance": result.provenance,
        "wall_time_s": round(result.wall_time_s, 6),
        "compute_time_s": round(result.compute_time_s, 6),
        "cache_status": result.cache_status,
    }
    if result.telemetry is not None:
        # Present only under --trace, so untraced envelopes keep their shape.
        payload["telemetry"] = result.telemetry
    if isinstance(result.data, dict):
        # Dict-returning experiments (figure_3_5) carry headline values beyond
        # the sweep rows; keep the full payload machine-readable.
        payload["data"] = result.data
    return payload


def _evaluation_cache_stats(cache: "ResultCache | None") -> "dict[str, object]":
    """Accounting of the cache the exploration's evaluations went through.

    With ``--cache-dir`` the forwarded disk cache holds both the envelope and
    the evaluation tiers (distinguished by the ``categories`` breakdown);
    otherwise candidate evaluations land in the explorer's process-wide
    default cache.
    """
    if cache is not None and cache.cache_dir:
        return cache.stats()
    from repro.dse.explorer import DEFAULT_EVALUATION_CACHE

    return DEFAULT_EVALUATION_CACHE.stats()


# ------------------------------------------------------------------ commands
def _cmd_list(args: argparse.Namespace) -> int:
    from repro.experiments.formatting import format_table
    from repro.experiments.registry import CATALOG

    specs = CATALOG.select(chapter=args.chapter, kind=args.kind)
    if not specs:
        print("no experiments match the given filters", file=sys.stderr)
        return 1
    rows = [
        {
            "id": spec.experiment_id,
            "chapter": spec.chapter,
            "kind": spec.kind,
            "produces": spec.produces,
        }
        for spec in specs
    ]
    print(format_table(rows, title=f"{len(rows)} experiments"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.experiments.formatting import format_table

    overrides = _parse_overrides(args.set or [])
    for experiment_id in args.ids:
        _check_override_keys(experiment_id, overrides)
    for experiment_id in args.ids:
        try:
            result = _run_one(experiment_id, args)
        except ValueError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if args.json:
            print(json.dumps(_envelope(result)))
        else:
            print(format_table(result.rows, title=experiment_id))
            print(
                f"# {experiment_id}: cache={result.cache_status} "
                f"wall={result.wall_time_s:.3f}s rows={len(result.rows)}"
            )
            print()
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments.formatting import format_table

    axes = _parse_axes(args.set or [])
    if not axes:
        raise SystemExit("sweep needs at least one --set key=v1,v2,... axis")
    _check_override_keys(args.id, axes)
    names = list(axes)
    combos = list(itertools.product(*(axes[name] for name in names)))
    rows = []
    envelopes = []
    for combo in combos:
        point = dict(zip(names, combo))
        sweep_args = argparse.Namespace(**{**vars(args), "set": []})
        result = _run_one(args.id, sweep_args, **point)
        envelopes.append({"point": point, **_envelope(result)})
        for row in result.rows:
            rows.append({**point, **row})
    if args.json:
        print(json.dumps(
            {"experiment": args.id, "axes": axes, "rows": rows, "points": envelopes}
        ))
    else:
        print(format_table(rows, title=f"{args.id} sweep over {', '.join(names)}"))
        print(f"# {len(combos)} points, {len(rows)} rows")
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    """Run one ``kind="explore"`` spec and print candidates, frontier, knees."""
    from repro.experiments.formatting import format_table
    from repro.experiments.registry import CATALOG

    spec = CATALOG.get(args.id)
    if spec.kind != "explore":
        explore_ids = sorted(s.experiment_id for s in CATALOG.by_kind("explore"))
        raise SystemExit(
            f"{args.id!r} is a {spec.kind!r} spec, not an exploration; "
            f"explorations: {explore_ids}"
        )
    _check_override_keys(args.id, _parse_overrides(args.set or []))
    # Forward the search flags only when given, so default runs keep the
    # same cache identity (and the report's claims) they had before.
    search_overrides = {
        name: value
        for name in ("strategy", "budget", "seed")
        if (value := getattr(args, name, None)) is not None
    }
    cache = _cache_for(args)
    result = _run_one(args.id, args, cache=cache, **search_overrides)
    payload = result.data if isinstance(result.data, dict) else {}
    if args.json:
        envelope = _envelope(result)
        # Lift the exploration's headline sections to the top level so scripts
        # can read the frontier without digging through `data`.
        envelope["frontier"] = payload.get("frontier", [])
        envelope["knees"] = payload.get("knees", {})
        envelope["stats"] = payload.get("stats", {})
        envelope["cache_stats"] = _evaluation_cache_stats(cache)
        print(json.dumps(envelope))
        return 0
    candidates = payload.get("candidates", [])
    frontier = payload.get("frontier", [])
    stats = payload.get("stats", {})
    print(format_table(frontier, title=f"{args.id}: Pareto frontier"))
    print()
    for label, knee in sorted(payload.get("knees", {}).items()):
        where = f" [{label}]" if label else ""
        print(f"# knee{where}: {knee.get('candidate', '?')}")
    objectives = ", ".join(payload.get("objectives", []))
    print(f"# objectives: {objectives}")
    print(
        f"# {args.id}: candidates={len(candidates)} "
        f"feasible={stats.get('feasible', '?')} frontier={len(frontier)} "
        f"evaluated={stats.get('evaluated', '?')} "
        f"cache_hits={stats.get('cache_hits', '?')} "
        f"cache={result.cache_status} wall={result.wall_time_s:.3f}s"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Grade the paper-claims registry and render the reproduction report.

    Returns exit code 1 when any claim grades ``fail`` so CI can gate on the
    report; ``warn`` grades do not fail the build.
    """
    import os

    from repro.report.render import render_markdown, render_svg
    from repro.report.validate import ReportValidator

    validator = ReportValidator(
        cache=_cache_for(args),
        use_cache=not args.no_cache,
        executor=_executor_for(args),
    )
    try:
        run = validator.validate(only=args.only or None)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not run.graded:
        print("no claims selected", file=sys.stderr)
        return 1
    for check in run.experiments:
        _log_run(
            {
                "experiment": check.experiment_id,
                "cache_status": check.cache_status,
                "wall_time_s": round(check.wall_time_s, 6),
                "compute_time_s": round(
                    0.0 if check.cache_status == "hit" else check.wall_time_s, 6
                ),
                "rows": len(check.claim_ids),
            }
        )
    if args.out:
        parent = os.path.dirname(args.out)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(render_markdown(run))
        summary = run.summary()
        # In --json mode the note goes to stderr so stdout stays pure JSON.
        print(
            f"# wrote {args.out}: {summary['claims']} claims, "
            f"{summary['pass']} pass / {summary['warn']} warn / "
            f"{summary['fail']} fail",
            file=sys.stderr if args.json else sys.stdout,
        )
    if args.json:
        print(json.dumps(run.payload()))
    elif not args.out:
        print(render_markdown(run), end="")
    if args.svg_dir:
        os.makedirs(args.svg_dir, exist_ok=True)
        for chapter, items in run.by_chapter().items():
            path = os.path.join(args.svg_dir, f"report_chapter{chapter}.svg")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(render_svg(chapter, items))
    return 0 if run.ok else 1


def _cmd_stats(args: argparse.Namespace) -> int:
    """Summarize the run ledger (invocations, per-experiment costs, hit ratios)."""
    from repro.experiments.formatting import format_table
    from repro.obs.ledger import ledger_path, read_records, summarize

    path = ledger_path(args.ledger)
    records = read_records(path, last=args.last, experiment=args.experiment)
    if not records:
        print(f"no ledger records at {path}", file=sys.stderr)
        return 1
    summary = summarize(records)
    if args.json:
        print(json.dumps({"ledger": str(path), **summary}))
        return 0
    rows = [
        {
            "experiment": row["experiment"],
            "runs": row["invocations"],
            "wall_s": row["wall_time_s"],
            "mean_wall_s": row["mean_wall_s"],
            "hit_ratio": "-" if row["cache_hit_ratio"] is None else row["cache_hit_ratio"],
            "last_utc": row["last_utc"],
        }
        for row in summary["experiments"]
    ]
    print(format_table(rows, title=f"{summary['invocations']} ledger records ({path})"))
    commands = ", ".join(
        f"{name}={count}" for name, count in summary["commands"].items()
    )
    print(f"# invocations by command: {commands}")
    return 0


# -------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser (all subcommands and flags)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures through the experiment runtime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list catalogued experiments")
    p_list.add_argument("--chapter", type=int, default=None,
                        help="filter by chapter (2-6; 7 = service studies, "
                             "8 = design-space explorations, "
                             "9 = fault/dependability studies, "
                             "10 = fleet-scale traffic studies, "
                             "11 = technology-node family studies)")
    p_list.add_argument("--kind", choices=("figure", "table", "study", "explore"),
                        default=None, help="filter by kind")
    p_list.set_defaults(func=_cmd_list)

    def add_execution_flags(p: argparse.ArgumentParser) -> None:
        """Attach the cache/executor/json flags shared by every running subcommand."""
        p.add_argument("--no-cache", action="store_true", help="bypass the result cache")
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="persist cached results under DIR (also honours REPRO_CACHE_DIR)")
        group = p.add_mutually_exclusive_group()
        group.add_argument("--parallel", action="store_true",
                           help="force the process-pool sweep executor")
        group.add_argument("--serial", action="store_true",
                           help="force the serial sweep executor")
        p.add_argument("--workers", type=int, default=None, help="process-pool size")
        p.add_argument("--json", action="store_true", help="emit JSON instead of a table")
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="write a Chrome-trace (Perfetto-loadable) JSON of "
                            "this invocation's spans and counters to PATH")

    def add_run_flags(p: argparse.ArgumentParser) -> None:
        """Attach the flags shared by run/sweep/explore to ``p``."""
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="parameter override (repeatable)")
        add_execution_flags(p)

    def add_node_flag(p: argparse.ArgumentParser) -> None:
        """Attach --node (technology-family retargeting) to ``p``."""
        p.add_argument("--node", default=None, metavar="NODE",
                       help="retarget a node-aware experiment to one family "
                            "node (e.g. 90nm, 40, 7nm); see docs/technology.md")

    p_run = sub.add_parser("run", help="run experiments and print their tables")
    p_run.add_argument("ids", nargs="+", metavar="ID", help="experiment ids (see `list`)")
    add_run_flags(p_run)
    add_node_flag(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="cross-product parameter sweep of one experiment")
    p_sweep.add_argument("id", metavar="ID", help="experiment id (see `list`)")
    add_run_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_explore = sub.add_parser(
        "explore", help="run a design-space exploration and print its frontier"
    )
    p_explore.add_argument("id", metavar="ID",
                           help="exploration id (see `list --kind explore`)")
    p_explore.add_argument("--strategy", choices=("exhaustive", "ga", "halving"),
                           default=None,
                           help="exploration strategy (default: the spec's own; "
                                "ga/halving search within --budget evaluations)")
    p_explore.add_argument("--budget", type=int, default=None, metavar="N",
                           help="evaluation budget for the search strategies")
    p_explore.add_argument("--seed", type=int, default=None,
                           help="seed for sampling and the search strategies")
    add_run_flags(p_explore)
    add_node_flag(p_explore)
    p_explore.set_defaults(func=_cmd_explore)

    p_report = sub.add_parser(
        "report", help="grade paper claims and render the reproduction report"
    )
    p_report.add_argument("--only", action="append", default=[], metavar="WHAT",
                          help="restrict to a chapter (chapter4), an experiment "
                               "id, or a claim id (repeatable)")
    p_report.add_argument("--out", default=None, metavar="PATH",
                          help="write the Markdown report to PATH instead of stdout")
    p_report.add_argument("--svg-dir", default=None, metavar="DIR",
                          help="also write per-chapter SVG figure sketches under DIR")
    add_execution_flags(p_report)
    p_report.set_defaults(func=_cmd_report)

    p_stats = sub.add_parser("stats", help="summarize the run ledger")
    p_stats.add_argument("--last", type=int, default=None, metavar="N",
                         help="only the most recent N ledger records")
    p_stats.add_argument("--experiment", default=None, metavar="ID",
                         help="only records touching this experiment id")
    p_stats.add_argument("--ledger", default=None, metavar="DIR",
                         help="ledger directory (default: .repro, or REPRO_LEDGER_DIR)")
    p_stats.add_argument("--json", action="store_true", help="emit JSON instead of a table")
    p_stats.set_defaults(func=_cmd_stats)

    return parser


#: Subcommands whose invocations are appended to the run ledger.
_LEDGER_COMMANDS = ("run", "sweep", "explore", "report")


def main(argv: "Sequence[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code.

    Besides dispatching to the subcommand, this installs the invocation-wide
    telemetry plumbing: a :class:`~repro.obs.Tracer` rooted at a
    ``cli.<command>`` span when ``--trace PATH`` was given (written as
    Chrome-trace JSON on success), and a run log whose entries become one
    appended ledger record per run/sweep/explore/report invocation.
    """
    global _RUN_LOG
    args = build_parser().parse_args(argv)

    trace_path = getattr(args, "trace", None)
    tracer = None
    previous_tracer = None
    if trace_path:
        from repro.obs.tracer import Tracer, set_tracer

        tracer = Tracer()
        previous_tracer = set_tracer(tracer)

    runs: "list[dict[str, object]]" = []
    saved_log, _RUN_LOG = _RUN_LOG, runs
    try:
        if tracer is not None:
            with tracer.span(f"cli.{args.command}", category="cli"):
                status = args.func(args)
        else:
            status = args.func(args)
    except UnknownExperimentError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    finally:
        _RUN_LOG = saved_log
        if tracer is not None:
            from repro.obs.tracer import set_tracer

            set_tracer(previous_tracer)

    if tracer is not None:
        from repro.obs.chrome import write_chrome_trace

        write_chrome_trace(trace_path, tracer)
        print(f"# trace written to {trace_path}", file=sys.stderr)

    if runs and args.command in _LEDGER_COMMANDS:
        from repro.obs.ledger import append_record, invocation_record

        record = invocation_record(
            args.command,
            runs,
            argv=list(argv) if argv is not None else sys.argv[1:],
            strategy=getattr(args, "strategy", None),
        )
        append_record(record)

    return status
