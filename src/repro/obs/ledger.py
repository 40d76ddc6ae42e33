"""Append-only run ledger: one JSONL record per CLI invocation.

Every ``run``/``sweep``/``explore``/``report`` invocation appends
one JSON line to ``.repro/ledger.jsonl`` (override the directory with the
``REPRO_LEDGER_DIR`` environment variable) recording what ran, how it was
cached, and how long it took -- the first step toward the ROADMAP's
persistent result store.  ``python -m repro stats`` summarizes the ledger.

Record schema (``schema: 1``)::

    {
      "schema": 1,
      "ts_utc": "2026-08-07T12:00:00Z",
      "command": "explore",                  # CLI subcommand
      "argv": ["explore", "explore_pod_40nm", "--strategy", "ga"],
      "host": "buildbox",
      "git_rev": "17bb30e",
      "code_fingerprint": "9f2c...",         # SHA-256 of the repro sources
      "experiments": ["explore_pod_40nm"],
      "strategy": "ga",                      # search strategy, when any
      "runs": [                              # one entry per experiment run
        {"experiment": "explore_pod_40nm", "cache_status": "miss",
         "wall_time_s": 2.1, "compute_time_s": 2.0, "rows": 64,
         "strategy": "ga", "cache_hits": 0, "evaluated": 64}
      ],
      "cache_hits": 0, "cache_misses": 1, "cache_hit_ratio": 0.0,
      "wall_time_s": 2.1, "compute_time_s": 2.0
    }

The ledger is durable against its own failure modes: reads skip corrupt
(truncated, non-JSON) lines instead of raising, appends rotate the file once
it exceeds :data:`MAX_RECORDS` records, and a read-only filesystem degrades
to not recording rather than failing the run.
"""

from __future__ import annotations

import json
import os
import platform
from datetime import datetime, timezone
from pathlib import Path
from typing import Mapping, Sequence

#: Schema version stamped into every ledger record.
LEDGER_SCHEMA = 1

#: Environment variable overriding the ledger directory (default ``.repro``).
LEDGER_DIR_ENV = "REPRO_LEDGER_DIR"

#: Default directory holding the ledger (relative to the working directory).
DEFAULT_LEDGER_DIR = ".repro"

#: Ledger file name inside the ledger directory.
LEDGER_FILENAME = "ledger.jsonl"

#: Records kept when an append triggers rotation.
MAX_RECORDS = 4096


def ledger_path(directory: "str | os.PathLike[str] | None" = None) -> Path:
    """The ledger file path for ``directory`` (env override, then default)."""
    if directory is None:
        directory = os.environ.get(LEDGER_DIR_ENV) or DEFAULT_LEDGER_DIR
    return Path(directory) / LEDGER_FILENAME


def git_revision(repo_dir: "str | os.PathLike[str]" = ".") -> str:
    """Short git revision of ``repo_dir``, or ``"unknown"``.

    Reads ``.git/HEAD`` (and the ref file it points at) directly instead of
    shelling out, so ledger appends stay subprocess-free.
    """
    git_dir = Path(repo_dir) / ".git"
    try:
        head = (git_dir / "HEAD").read_text(encoding="utf-8").strip()
        if head.startswith("ref:"):
            ref = head.partition(":")[2].strip()
            ref_path = git_dir / ref
            if ref_path.exists():
                head = ref_path.read_text(encoding="utf-8").strip()
            else:
                packed = git_dir / "packed-refs"
                for line in packed.read_text(encoding="utf-8").splitlines():
                    if line.endswith(f" {ref}"):
                        head = line.split(" ", 1)[0]
                        break
                else:
                    return "unknown"
        return head[:7] if head else "unknown"
    except OSError:
        return "unknown"


def invocation_record(
    command: str,
    runs: "Sequence[Mapping[str, object]]",
    argv: "Sequence[str] | None" = None,
    strategy: "str | None" = None,
) -> "dict[str, object]":
    """Build one ledger record from a CLI invocation's per-run entries.

    Args:
        command: the CLI subcommand (``"run"``, ``"explore"``, ...).
        runs: per-experiment entries with ``experiment``, ``cache_status``,
            ``wall_time_s``, ``compute_time_s``, ``rows``, and -- for
            explorations -- ``strategy``, ``cache_hits``, ``evaluated``.
        argv: the raw CLI arguments, for replayability.
        strategy: search strategy override; defaults to the first per-run
            strategy found.

    ``code_fingerprint`` ties the record to the exact sources that ran (the
    same digest that salts the result-cache keys), uncommitted edits
    included.  The envelope-level cache statuses and the explorations' internal
    evaluation-cache accounting both roll into the record's
    ``cache_hits``/``cache_misses``/``cache_hit_ratio``.
    """
    from repro.runtime.cache import code_fingerprint

    hits = misses = 0
    for run in runs:
        status = run.get("cache_status")
        hits += status == "hit"
        misses += status in ("miss", "disabled")
        hits += int(run.get("cache_hits") or 0)
        misses += int(run.get("evaluated") or 0) if run.get("cache_hits") is not None else 0
        if strategy is None and run.get("strategy"):
            strategy = str(run["strategy"])
    lookups = hits + misses
    record: "dict[str, object]" = {
        "schema": LEDGER_SCHEMA,
        "ts_utc": datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "command": command,
        "argv": list(argv or []),
        "host": platform.node() or "unknown",
        "git_rev": git_revision(),
        "code_fingerprint": code_fingerprint(),
        "experiments": sorted({str(run.get("experiment", "?")) for run in runs}),
        "strategy": strategy,
        "runs": [dict(run) for run in runs],
        "cache_hits": hits,
        "cache_misses": misses,
        "cache_hit_ratio": round(hits / lookups, 4) if lookups else None,
        "wall_time_s": round(sum(float(run.get("wall_time_s", 0.0)) for run in runs), 6),
        "compute_time_s": round(
            sum(float(run.get("compute_time_s", 0.0)) for run in runs), 6
        ),
    }
    return record


def append_record(
    record: "Mapping[str, object]",
    directory: "str | os.PathLike[str] | None" = None,
    max_records: int = MAX_RECORDS,
) -> "Path | None":
    """Append one record to the ledger; returns its path (``None`` on failure).

    The ledger must never break a run: filesystem errors (read-only
    directory, permission denied) are swallowed and reported as ``None``.
    When the file already holds ``max_records`` records the oldest are
    rotated out first.
    """
    path = ledger_path(directory)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        if path.exists() and max_records > 0:
            rotate(path, keep_last=max_records - 1)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    except OSError:
        return None
    return path


def read_records(
    path: "str | os.PathLike[str] | None" = None,
    last: "int | None" = None,
    experiment: "str | None" = None,
) -> "list[dict[str, object]]":
    """Parse the ledger, skipping corrupt lines; newest records last.

    Args:
        path: ledger file (default: :func:`ledger_path`).
        last: keep only the newest ``last`` records (after filtering).
        experiment: keep only records whose ``experiments`` include this id.
    """
    path = Path(path) if path is not None else ledger_path()
    records: "list[dict[str, object]]" = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        return []
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:
            continue  # corrupt / truncated line: tolerate and move on
        if isinstance(record, dict):
            records.append(record)
    if experiment is not None:
        records = [
            record
            for record in records
            if experiment in (record.get("experiments") or [])
        ]
    if last is not None and last >= 0:
        records = records[-last:] if last else []
    return records


def rotate(path: "str | os.PathLike[str]", keep_last: int) -> int:
    """Trim the ledger to its newest ``keep_last`` records; returns #dropped.

    Corrupt lines are dropped during rotation (they are unreadable anyway).
    """
    path = Path(path)
    records = read_records(path)
    if len(records) <= keep_last:
        return 0
    kept = records[-keep_last:] if keep_last > 0 else []
    text = "".join(json.dumps(record, sort_keys=True) + "\n" for record in kept)
    path.write_text(text, encoding="utf-8")
    return len(records) - len(kept)


def summarize(records: "Sequence[Mapping[str, object]]") -> "dict[str, object]":
    """Aggregate ledger records for ``python -m repro stats``.

    Returns:
        A dict with ``invocations``, per-command counts, and one row per
        experiment id (invocations, total/mean wall time, aggregate cache
        hit ratio, last run timestamp), sorted by experiment id.
    """
    commands: "dict[str, int]" = {}
    per_experiment: "dict[str, dict[str, object]]" = {}
    for record in records:
        command = str(record.get("command", "?"))
        commands[command] = commands.get(command, 0) + 1
        for run in record.get("runs") or []:
            if not isinstance(run, Mapping):
                continue
            experiment = str(run.get("experiment", "?"))
            row = per_experiment.setdefault(
                experiment,
                {"experiment": experiment, "invocations": 0, "wall_time_s": 0.0,
                 "hits": 0, "lookups": 0, "last_utc": ""},
            )
            row["invocations"] = int(row["invocations"]) + 1
            row["wall_time_s"] = float(row["wall_time_s"]) + float(run.get("wall_time_s", 0.0))
            hits = (run.get("cache_status") == "hit") + int(run.get("cache_hits") or 0)
            lookups = hits + (run.get("cache_status") in ("miss", "disabled"))
            if run.get("cache_hits") is not None:
                lookups += int(run.get("evaluated") or 0)
            row["hits"] = int(row["hits"]) + hits
            row["lookups"] = int(row["lookups"]) + lookups
            row["last_utc"] = max(str(row["last_utc"]), str(record.get("ts_utc", "")))
    experiments = []
    for row in sorted(per_experiment.values(), key=lambda item: str(item["experiment"])):
        lookups = int(row.pop("lookups"))
        hits = int(row.pop("hits"))
        invocations = int(row["invocations"])
        row["wall_time_s"] = round(float(row["wall_time_s"]), 6)
        row["mean_wall_s"] = round(float(row["wall_time_s"]) / invocations, 6)
        row["cache_hit_ratio"] = round(hits / lookups, 4) if lookups else None
        experiments.append(row)
    return {
        "invocations": len(records),
        "commands": dict(sorted(commands.items())),
        "experiments": experiments,
    }
