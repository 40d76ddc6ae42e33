"""Smoke test of the benchmark harness in its shortest mode.

For each workload (default: all), runs ``run.py`` at the pinned seed with
``--seconds 1`` -- two samples -- untraced and traced, and asserts that the
run is correct, that every output digest matches, and that exactly the
metrics named in BENCHMARK.json are emitted.  It also checks sample isolation:
two samples run in different processes and start from the same memo state,
and the output check rejects samples that shared a process.

Usage: python3 perfbench/smoke.py [WORKLOAD ...]
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def check_isolation() -> None:
    """Samples never share a process, and a shared process is detected."""
    first, second = (run.run_sample("noc_pod", run.PINNED_SEED, False) for _ in range(2))
    assert first["pid"] != second["pid"], "two samples ran in one process"
    assert first["memos"] == second["memos"], (first["memos"], second["memos"])
    _, failed, problems = run.check_outputs(
        "noc_pod", run.PINNED_SEED, [first, dict(second, pid=first["pid"])], []
    )
    assert failed and "two samples shared a process" in problems, problems


def check_workload(workload: str, spec: "dict[str, object]") -> None:
    """One untraced and one traced short run emit every metric, all correct."""
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        completed = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "--workload",
                workload,
                "--seed",
                str(run.PINNED_SEED),
                "--seconds",
                "1",
                "--trace",
                str(trace),
            ],
            capture_output=True,
            text=True,
            timeout=600,
        )
        assert completed.returncode == 0, completed.stderr
        result = json.loads(completed.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, result
        named = {metric["name"]: metric["unit"] for metric in spec[key]}
        emitted = {name: value["unit"] for name, value in result["metrics"].items()}
        assert emitted == named, (workload, trace, set(emitted) ^ set(named))
        print(f"ok {workload} trace={trace}: {len(emitted)} metrics, digests match")


def main(argv: "list[str]") -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    workloads = argv or [workload["name"] for workload in spec["workloads"]]
    check_isolation()
    print("ok isolation: one process per sample")
    for workload in workloads:
        check_workload(workload, spec)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
