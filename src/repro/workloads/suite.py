"""Workload suite aggregation helpers.

The paper reports most design-space results averaged across the workload suite
(arithmetic mean of performance density, geometric mean for normalized
performance).  :class:`WorkloadSuite` provides those aggregations plus filtering
by software scalability (e.g. Chapter 4 evaluates the three poorly-scaling
workloads on only the 16 tiles nearest the LLC).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

from repro.workloads.cloudsuite import CLOUDSUITE
from repro.workloads.profile import WorkloadProfile


@dataclass(frozen=True)
class WorkloadSuite:
    """An ordered collection of workload profiles with aggregation helpers."""

    workloads: "tuple[WorkloadProfile, ...]"

    def __post_init__(self) -> None:
        if not self.workloads:
            raise ValueError("a WorkloadSuite needs at least one workload")
        names = [w.name for w in self.workloads]
        if len(set(names)) != len(names):
            raise ValueError("duplicate workload names in suite")

    # ------------------------------------------------------------- container
    def __iter__(self) -> Iterator[WorkloadProfile]:
        return iter(self.workloads)

    def __len__(self) -> int:
        return len(self.workloads)

    def __getitem__(self, item: "int | str") -> WorkloadProfile:
        if isinstance(item, int):
            return self.workloads[item]
        for workload in self.workloads:
            if workload.name.lower() == item.lower():
                return workload
        raise KeyError(f"workload {item!r} not in suite")

    def names(self) -> "list[str]":
        """Workload names in suite order."""
        return [w.name for w in self.workloads]

    # ------------------------------------------------------------ filtering
    def scalable_to(self, cores: int) -> "WorkloadSuite":
        """Sub-suite of workloads whose software stack scales to ``cores`` cores."""
        selected = tuple(w for w in self.workloads if w.max_cores >= cores)
        if not selected:
            raise ValueError(f"no workload scales to {cores} cores")
        return WorkloadSuite(selected)

    def latency_sensitive(self) -> "WorkloadSuite":
        """Sub-suite of latency-sensitive (non-batch) workloads."""
        selected = tuple(w for w in self.workloads if w.latency_sensitive)
        if not selected:
            raise ValueError("no latency-sensitive workloads in suite")
        return WorkloadSuite(selected)

    # ----------------------------------------------------------- aggregation
    def mean(self, metric: Callable[[WorkloadProfile], float]) -> float:
        """Arithmetic mean of ``metric`` across the suite."""
        values = [metric(w) for w in self.workloads]
        return sum(values) / len(values)

    def geomean(self, metric: Callable[[WorkloadProfile], float]) -> float:
        """Geometric mean of ``metric`` across the suite (values must be positive)."""
        values = [metric(w) for w in self.workloads]
        offenders = {
            w.name: v for w, v in zip(self.workloads, values) if v <= 0
        }
        if offenders:
            raise ValueError(
                "geometric mean requires positive values; got non-positive "
                f"metric values for {offenders}"
            )
        return math.exp(sum(math.log(v) for v in values) / len(values))

    def per_workload(self, metric: Callable[[WorkloadProfile], float]) -> "dict[str, float]":
        """Evaluate ``metric`` for every workload, keyed by workload name."""
        return {w.name: metric(w) for w in self.workloads}


def default_suite() -> WorkloadSuite:
    """The paper's seven-workload CloudSuite-style evaluation suite."""
    return WorkloadSuite(CLOUDSUITE)
