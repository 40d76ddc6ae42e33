"""The repository benchmark: host time of the simulators as users run them.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload NAME --pin    # re-pin seed-0 digests

Every sample runs in a fresh interpreter (``sample.py``) with the sweep
executor forced serial, so no sample inherits another's memos.  Samples repeat
until ``--seconds`` have passed (at least two per run).

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (the measured call),
``units_per_s`` (simulated work per second of ``wall_s``; the unit is named
on the line before the result), ``setup_s`` (importing ``repro`` and
building the inputs) and ``peak_rss_mb``, each the median over the run's
samples.  Every time is in reference-host seconds: each sample also times a
fixed calibration loop, and its times are scaled by how fast that loop ran
against :data:`REFERENCE_CALIBRATION_S` (see :func:`host_speed`).
``--trace 1`` alternates untraced and traced samples and prints the
per-layer metrics of ``layers.py`` over the traced samples, the unattributed
remainder and the tracing overhead; the spans of the last traced sample are
written to ``.perfbench/``.

Every sample's output records are digested.  For seed 0 the digests must match
``digests.json``; for any other seed all samples of the run must agree.  A
mismatch counts the record as failed and the command exits with status 1.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
TRACE_DIR = ROOT / ".perfbench"

sys.path.insert(0, str(HERE))

from layers import BENCH_METRICS, COUNTS, LAYER_NAMES, RATIOS, chrome_trace  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: The seed whose digests are pinned in digests.json.
PINNED_SEED = 0
#: Median time of ``sample.calibrate`` on the reference host, a 2-vCPU VM in
#: its faster state.  Reported times are scaled to this host's speed.
REFERENCE_CALIBRATION_S = 0.080
#: Samples per run, whatever --seconds says.
MIN_SAMPLES = 2
#: No sample starts once a run has used this much time.
SAMPLE_DEADLINE_S = 120.0
#: A sample still running this long after the run started is killed and
#: counted failed, so every run ends within three minutes.
RUN_BUDGET_S = 165.0


class SampleError(RuntimeError):
    """A sample process exited non-zero or printed no result."""


def run_sample(
    workload: str, seed: int, trace: bool, timeout_s: float = RUN_BUDGET_S
) -> "dict[str, object]":
    """Run one sample in a fresh interpreter and return its parsed result."""
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith(("REPRO_", "PYTHON"))
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable,
        str(HERE / "sample.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
    ]
    if trace:
        command.append("--trace")
    try:
        completed = subprocess.run(
            command,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=timeout_s,
        )
    except subprocess.TimeoutExpired as exc:
        raise SampleError(f"sample timed out after {timeout_s:.0f} s") from exc
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SampleError(
            f"sample exited {completed.returncode}: {completed.stderr.strip()[-2000:]}"
        )
    return json.loads(lines[-1])


def collect(workload: str, seed: int, seconds: float, trace: bool):
    """Samples until ``seconds`` pass: ``(untraced, traced, errors)``.

    With ``trace`` the run alternates untraced and traced samples, so both
    sets see the same machine conditions.
    """
    untraced: "list[dict]" = []
    traced: "list[dict]" = []
    errors: "list[str]" = []
    plan = (False, True) if trace else (False,)
    start = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        done = len(untraced) + len(traced) + len(errors)
        enough = done >= MIN_SAMPLES * len(plan) and elapsed >= seconds
        if enough or elapsed >= SAMPLE_DEADLINE_S:
            break
        traced_sample = plan[index % len(plan)]
        index += 1
        try:
            sample = run_sample(workload, seed, traced_sample, RUN_BUDGET_S - elapsed)
        except SampleError as exc:
            errors.append(str(exc))
            continue
        (traced if traced_sample else untraced).append(sample)
    return untraced, traced, errors


def check_outputs(workload: str, seed: int, samples: "list[dict]", errors: "list[str]"):
    """``(attempted, failed, problems)`` of the records every sample produced.

    Seed 0 is compared with the pinned digests; other seeds with the run's
    first sample.  A failed sample counts as all its records failing.
    """
    problems: "list[str]" = list(errors)
    pinned = json.loads(DIGESTS.read_text()).get(workload) if DIGESTS.is_file() else None
    if seed == PINNED_SEED:
        if pinned is None:
            problems.append(f"no pinned digests for {workload}; run with --pin")
            reference = None
        else:
            reference = pinned["digests"]
    else:
        reference = samples[0]["digests"] if samples else None
    per_sample = len(reference) if reference is not None else 1
    attempted = per_sample * len(errors)
    failed = per_sample * len(errors)
    for sample in samples:
        digests = sample["digests"]
        attempted += max(len(digests), per_sample)
        if reference is None:
            failed += len(digests)
            continue
        mismatched = sum(a != b for a, b in zip(digests, reference))
        mismatched += abs(len(digests) - len(reference))
        if mismatched:
            problems.append(f"{mismatched} output records differ from the reference")
        failed += mismatched
    units = pinned["units"] if seed == PINNED_SEED and pinned else samples and samples[0]["units"]
    wrong_units = [s["units"] for s in samples if s["units"] != units]
    if wrong_units:
        problems.append(f"units {wrong_units} differ from the reference {units}")
        failed += len(wrong_units)
    pids = [sample["pid"] for sample in samples]
    if len(set(pids)) != len(pids):
        problems.append("two samples shared a process")
        failed += 1
    memos = [json.dumps(sample["memos"], sort_keys=True) for sample in samples]
    if len(set(memos)) > 1:
        problems.append(f"samples started with different memo state: {sorted(set(memos))}")
        failed += 1
    return attempted, failed, problems


def host_speed(sample: "dict[str, object]") -> float:
    """How much faster than the reference host the sample's host ran.

    On a shared 2-vCPU VM the host ran every process about 1.6x slower for
    spells of tens of seconds to minutes, which no choice of samples within a
    run can skip.  The calibration loop slowed by the same factor as the
    workloads and their imports, so dividing by it leaves the program's time.
    """
    return REFERENCE_CALIBRATION_S / sample["calibration_s"]


def reference_s(sample: "dict[str, object]", key: str) -> float:
    """The sample's ``key`` time in reference-host seconds."""
    return sample[key] * host_speed(sample)


def end_to_end(samples: "list[dict]") -> "dict[str, dict[str, object]]":
    """End-to-end metrics: medians over untraced samples, in reference seconds."""
    wall_s = statistics.median(reference_s(s, "wall_s") for s in samples)
    return {
        "wall_s": {"value": wall_s, "unit": "s"},
        "units_per_s": {"value": samples[0]["units"] / wall_s, "unit": "units/s"},
        "setup_s": {
            "value": statistics.median(reference_s(s, "setup_s") for s in samples),
            "unit": "s",
        },
        "peak_rss_mb": {
            "value": statistics.median(s["peak_rss_mb"] for s in samples),
            "unit": "MB",
        },
    }


def metric_unit(name: str) -> str:
    if name in COUNTS:
        return "count"
    if name in RATIOS:
        return "ns"
    if name == "bench.trace_overhead_pct":
        return "%"
    return "s"


def per_layer(untraced: "list[dict]", traced: "list[dict]", problems: "list[str]"):
    """Per-layer metrics over traced samples, plus the tracing overhead.

    Times are medians in reference seconds, as end to end.  Counts are
    exact: every traced sample must report the same ones.
    """
    metrics: "dict[str, dict[str, object]]" = {}
    for name in (*(f"{n}.self_s" for n in LAYER_NAMES), *COUNTS, *RATIOS, BENCH_METRICS[0]):
        values = [sample["layers"][name] for sample in traced]
        if name in COUNTS:
            if len(set(values)) > 1:
                problems.append(f"count {name} differs between traced samples: {values}")
            metrics[name] = {"value": values[0], "unit": "count"}
        else:
            scaled = [v * host_speed(s) for v, s in zip(values, traced)]
            metrics[name] = {"value": statistics.median(scaled), "unit": metric_unit(name)}
    plain = statistics.median(reference_s(s, "wall_s") for s in untraced)
    with_trace = statistics.median(reference_s(s, "wall_s") for s in traced)
    metrics["bench.trace_overhead_pct"] = {
        "value": (with_trace - plain) / plain * 100.0,
        "unit": "%",
    }
    return metrics


def write_trace(workload: str, sample: "dict[str, object]") -> Path:
    """Write one traced sample's spans as a Chrome trace under ``.perfbench/``."""
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{workload}.json"
    path.write_text(json.dumps(chrome_trace(sample["spans"], sample["origin"])))
    return path


def pin(workload: str) -> int:
    """Record the seed-0 digests and units of ``workload`` in digests.json."""
    first, second = (run_sample(workload, PINNED_SEED, False) for _ in range(2))
    if (first["digests"], first["units"]) != (second["digests"], second["units"]):
        print(f"perfbench: {workload} is not deterministic; nothing pinned", file=sys.stderr)
        return 1
    pinned = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    pinned[workload] = {"seed": PINNED_SEED, "units": first["units"], "digests": first["digests"]}
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"perfbench: pinned {len(first['digests'])} records of {workload}")
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="re-pin the seed-0 digests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Compile once up front so no sample pays for bytecode compilation.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
        check=True,
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
    )
    if args.pin:
        return pin(args.workload)

    untraced, traced, errors = collect(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    attempted, failed, problems = check_outputs(
        args.workload, args.seed, untraced + traced, errors
    )
    metrics: "dict[str, dict[str, object]]" = {}
    if untraced and (traced or not args.trace):
        metrics = per_layer(untraced, traced, problems) if args.trace else end_to_end(untraced)
    else:
        problems.append("too few samples completed to report metrics")
    if problems and not failed:
        failed = 1
    for problem in problems:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    if traced:
        path = write_trace(args.workload, traced[-1])
        print(f"perfbench: spans written to {path.relative_to(ROOT)}")
    unit = (untraced or traced or [{"unit": "units"}])[0]["unit"]
    measured = untraced + traced
    speeds = ", ".join(f"{host_speed(s):.2f}" for s in measured)
    raw_wall = statistics.median(s["wall_s"] for s in untraced) if untraced else 0.0
    print(
        f"perfbench: {args.workload} seed={args.seed} samples={len(untraced)} untraced"
        f" + {len(traced)} traced; units_per_s counts {unit};"
        f" failed_fraction={failed / max(attempted, 1):.4f};"
        f" host speed per sample [{speeds}]; unscaled median wall_s={raw_wall:.4f}"
    )
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(attempted, 1),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
