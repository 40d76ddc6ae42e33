"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Builds the workload's inputs, times its measured call once, and prints one
JSON line: wall and set-up time, peak RSS, simulated work units, a digest of
every output record, and -- with ``--trace`` -- the per-layer metrics.  A
fixed calibration loop is timed just before and just after the measured
call, so ``run.py`` can scale the times to a reference host speed.

Usage: python3 perfbench/sample.py --workload NAME --seed N [--trace]
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

#: Loop length of one calibration run and runs before and after the call.
CALIBRATION_SIZE = 200_000
CALIBRATION_REPEATS = 6


def record_digest(record: object) -> str:
    """Short SHA-256 of one output record's canonical JSON (floats at full precision)."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def calibration_kernel(size: int = CALIBRATION_SIZE) -> int:
    """Fixed interpreter work in bounded memory: integer hashing, a dict, a sort."""
    table: "dict[int, int]" = {}
    for i in range(size):
        key = i * 2654435761 % 1000003
        table[key & 4095] = table.get(key & 4095, 0) + (key >> 12)
    return sorted(table.values())[-1]


def calibrate(repeats: int = CALIBRATION_REPEATS) -> "list[float]":
    """Host seconds of ``repeats`` runs of :func:`calibration_kernel`."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        calibration_kernel()
        times.append(time.perf_counter() - start)
    return times


def warm_memos() -> "dict[str, int]":
    """Filled ``functools`` caches in loaded ``repro`` modules, by qualified name.

    Read just before the measured call: a sample that inherited memos from an
    earlier one would report more than its siblings.
    """
    filled = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for key, value in vars(module).items():
            info = getattr(value, "cache_info", None)
            if callable(info) and getattr(value, "__module__", None) == module_name:
                size = info().currsize
                if size:
                    filled[f"{module_name}.{key}"] = size
    return filled


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        import layers

        tracer = layers.Tracer()
        layers.install(tracer)
    memos = warm_memos()
    setup_s = time.perf_counter() - _START
    calibration = calibrate()

    start = time.perf_counter()
    output = workload.run()
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    calibration += calibrate()
    traced = {}
    if tracer is not None:
        # Snapshot before units() and records() run: they may call wrapped code.
        traced = {"layers": tracer.metrics(wall_s), "spans": list(tracer.spans), "origin": start}

    result = {
        "pid": os.getpid(),
        "memos": memos,
        "setup_s": setup_s,
        "wall_s": wall_s,
        "calibration_s": statistics.fmean(calibration),
        "peak_rss_mb": peak_rss_mb,
        "unit": workload.unit,
        "units": workload.units(output),
        "digests": [record_digest(record) for record in workload.records(output)],
        **traced,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
