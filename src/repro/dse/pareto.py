"""Multi-objective Pareto dominance, frontier extraction, and knee selection.

The exploration studies compare candidates on several incommensurable metrics
at once -- performance density, performance per TCO dollar, performance per
watt, p99 latency -- so there is no single "best" design, only the set of
non-dominated ones.  This module provides:

* :class:`Objective` -- a named metric with a sense (maximize or minimize);
* :func:`dominates` -- strict Pareto dominance between two metric rows;
* :func:`pareto_frontier` -- the non-dominated subset, optionally grouped
  (e.g. one frontier per core family, mirroring the paper's separate OoO and
  in-order design tracks);
* :func:`frontier_2d` -- a two-objective frontier sorted for plotting;
* :func:`knee_point` -- the balanced pick on a frontier: the candidate closest
  to the utopia point after per-objective min-max normalization.

All functions operate on plain row dictionaries (``{metric: value, ...}``) and
preserve input order, so serial and parallel exploration produce identical
frontiers.

Frontier extraction runs a vectorized numpy kernel (:func:`pareto_mask_numpy`)
that reduces the objective matrix with broadcast comparisons and handles
million-point fronts.  :func:`pareto_frontier` uses it for every group whose
objective values are finite floats and the pairwise dominance loop for a group
holding NaN or infinity.  ``tests/test_dse_search.py`` holds both to the
pure-Python O(n^2) loop kept in ``tests/oracles/pareto.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

_SENSES = ("max", "min")


@dataclass(frozen=True)
class Objective:
    """A named optimization objective over a metric column.

    Attributes:
        metric: key of the metric in candidate rows.
        sense: ``"max"`` (higher is better) or ``"min"`` (lower is better).
    """

    metric: str
    sense: str = "max"

    def __post_init__(self) -> None:
        if self.sense not in _SENSES:
            raise ValueError(f"sense must be one of {_SENSES}, got {self.sense!r}")

    @classmethod
    def maximize(cls, metric: str) -> "Objective":
        """Objective preferring larger values of ``metric``."""
        return cls(metric, "max")

    @classmethod
    def minimize(cls, metric: str) -> "Objective":
        """Objective preferring smaller values of ``metric``."""
        return cls(metric, "min")

    def oriented(self, row: "Mapping[str, object]") -> float:
        """The metric value oriented so that larger is always better."""
        value = float(row[self.metric])  # type: ignore[arg-type]
        return value if self.sense == "max" else -value

    def describe(self) -> str:
        """Short human-readable form, e.g. ``"max performance_density"``."""
        return f"{self.sense} {self.metric}"


def dominates(
    a: "Mapping[str, object]",
    b: "Mapping[str, object]",
    objectives: "Sequence[Objective]",
) -> bool:
    """Whether row ``a`` Pareto-dominates row ``b``.

    ``a`` dominates ``b`` when it is at least as good on every objective and
    strictly better on at least one.  Rows tied on every objective do not
    dominate each other, so ties survive onto the frontier together.
    """
    if not objectives:
        raise ValueError("dominance needs at least one objective")
    strictly_better = False
    for objective in objectives:
        va, vb = objective.oriented(a), objective.oriented(b)
        if va < vb:
            return False
        if va > vb:
            strictly_better = True
    return strictly_better


def _group_key(row: "Mapping[str, object]", group_by: "str | Sequence[str] | None"):
    if group_by is None:
        return None
    if isinstance(group_by, str):
        return row[group_by]
    return tuple(row[name] for name in group_by)


def group_label(row: "Mapping[str, object]", group_by: "str | Sequence[str] | None") -> str:
    """JSON-friendly label of a row's group (empty string when ungrouped)."""
    key = _group_key(row, group_by)
    if key is None:
        return ""
    if isinstance(key, tuple):
        return " / ".join(str(part) for part in key)
    return str(key)


def _reference_group_mask(
    members: "Sequence[Mapping[str, object]]",
    objectives: "Sequence[Objective]",
) -> "list[bool]":
    """Per-member frontier mask of one group via the pairwise dominance loop."""
    return [
        not any(
            dominates(other, row, objectives)
            for other in members
            if other is not row
        )
        for row in members
    ]


def pareto_mask_numpy(matrix: "np.ndarray") -> "np.ndarray":
    """Boolean non-dominated mask over an oriented (n x k) objective matrix.

    The matrix must already be oriented larger-is-better on every column (the
    caller negates ``min`` objectives) and contain only finite float values.
    The kernel first collapses exact duplicate rows with ``np.unique`` so that
    ties share one verdict (ties never dominate each other and survive
    together), then runs a broadcast skyline sweep: unique rows are visited in
    descending lexicographic order and each surviving pivot eliminates, in one
    vectorized comparison, every row it weakly dominates.  The cost is
    O(u * f * k) for u unique rows and f frontier points -- in practice tens of
    broadcast passes instead of n^2 Python-level comparisons.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError(f"expected a 2-D objective matrix, got shape {matrix.shape}")
    if matrix.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    if matrix.shape[1] == 0:
        raise ValueError("dominance needs at least one objective")
    if not np.isfinite(matrix).all():
        raise ValueError(
            "pareto_mask_numpy requires finite objective values; "
            "use pareto_frontier for rows with NaN or infinity"
        )
    unique, inverse = np.unique(matrix, axis=0, return_inverse=True)
    # Descending lexicographic order: strong candidates come first, so early
    # pivots eliminate large swaths of the pool in few broadcast passes.
    costs = unique[::-1]
    survivors = np.arange(costs.shape[0])
    pivot = 0
    while pivot < costs.shape[0]:
        keep = (costs > costs[pivot]).any(axis=1)
        keep[pivot] = True  # a pivot never eliminates itself
        survivors = survivors[keep]
        costs = costs[keep]
        pivot = int(keep[:pivot].sum()) + 1
    unique_mask = np.zeros(unique.shape[0], dtype=bool)
    unique_mask[unique.shape[0] - 1 - survivors] = True
    return unique_mask[inverse]


def _oriented_matrix(
    rows: "Sequence[Mapping[str, object]]",
    positions: "Sequence[int]",
    objectives: "Sequence[Objective]",
) -> "np.ndarray":
    """Oriented (larger-is-better) objective matrix for the selected rows."""
    columns = []
    for objective in objectives:
        column = np.fromiter(
            (float(rows[pos][objective.metric]) for pos in positions),  # type: ignore[arg-type]
            dtype=np.float64,
            count=len(positions),
        )
        if objective.sense == "min":
            column = -column
        columns.append(column)
    return np.column_stack(columns)


def pareto_frontier(
    rows: "Sequence[Mapping[str, object]]",
    objectives: "Sequence[Objective]",
    group_by: "str | Sequence[str] | None" = None,
) -> "list[Mapping[str, object]]":
    """The non-dominated subset of ``rows``, in input order.

    Args:
        rows: candidate rows carrying every objective's metric.
        objectives: the objectives defining dominance.
        group_by: optional row key (or keys) partitioning the rows; dominance
            is then evaluated within each partition and the union of the
            per-group frontiers is returned.  The paper compares OoO and
            in-order designs separately, so the pod studies group by core type.

    Each group runs through the vectorized numpy kernel, or through the
    pairwise dominance loop when it holds a non-finite value.  A single-row
    input is its own frontier; exact duplicates on all objectives all survive
    (no arbitrary tie-breaking).
    """
    if not objectives:
        raise ValueError("dominance needs at least one objective")
    groups: "dict[object, list[int]]" = {}
    for position, row in enumerate(rows):
        groups.setdefault(_group_key(row, group_by), []).append(position)
    mask = [False] * len(rows)
    for positions in groups.values():
        if len(positions) == 1:
            # A lone group member is never compared (nor are its metric
            # values converted), as in the pairwise loop.
            mask[positions[0]] = True
            continue
        matrix = _oriented_matrix(rows, positions, objectives)
        if np.isfinite(matrix).all():
            group_mask = pareto_mask_numpy(matrix)
        else:  # NaN/inf semantics are defined by the pairwise loop
            group_mask = _reference_group_mask([rows[p] for p in positions], objectives)
        for position, on_front in zip(positions, group_mask):
            mask[position] = bool(on_front)
    return [row for row, on_front in zip(rows, mask) if on_front]


def frontier_2d(
    rows: "Sequence[Mapping[str, object]]",
    x: Objective,
    y: Objective,
) -> "list[Mapping[str, object]]":
    """Two-objective frontier sorted by the ``x`` metric (ascending).

    This is the plottable trade-off curve between exactly two objectives
    (e.g. monthly TCO versus p99 latency), extracted regardless of how many
    objectives the full exploration used.  Rows missing either metric, or
    carrying a value that cannot be cast to ``float``, raise a ``KeyError`` /
    ``TypeError`` naming the metric and the offending row's index (instead of
    the bare cast failure the sort key used to surface).
    """
    keys: "dict[int, float]" = {}
    for index, row in enumerate(rows):
        for objective in (x, y):
            if objective.metric not in row:
                raise KeyError(
                    f"frontier_2d: row {index} has no {objective.metric!r} "
                    f"metric (available: {sorted(row)})"
                )
            value = row[objective.metric]
            try:
                as_float = float(value)  # type: ignore[arg-type]
            except (TypeError, ValueError) as exc:
                raise TypeError(
                    f"frontier_2d: row {index} metric {objective.metric!r} "
                    f"value {value!r} is not castable to float"
                ) from exc
            if objective is x:
                keys[id(row)] = as_float
    frontier = pareto_frontier(rows, (x, y))
    return sorted(frontier, key=lambda row: keys[id(row)])


def knee_point(
    rows: "Sequence[Mapping[str, object]]",
    objectives: "Sequence[Objective]",
) -> "Mapping[str, object] | None":
    """The balanced frontier pick: closest to the utopia point.

    Each objective is min-max normalized over ``rows`` and oriented so 1.0 is
    best; the knee is the row minimizing Euclidean distance to the all-ones
    utopia point.  Degenerate objectives (no spread across the rows) contribute
    nothing to the distance.  Returns ``None`` for an empty input and the row
    itself for a single-row input.  Ties break toward the earlier row, keeping
    the selection deterministic.
    """
    if not rows:
        return None
    if len(rows) == 1:
        return rows[0]
    spans = []
    for objective in objectives:
        values = [objective.oriented(row) for row in rows]
        spans.append((objective, min(values), max(values)))
    best_row, best_distance = None, math.inf
    for row in rows:
        distance = 0.0
        for objective, lo, hi in spans:
            if hi <= lo:
                continue
            normalized = (objective.oriented(row) - lo) / (hi - lo)
            distance += (1.0 - normalized) ** 2
        if distance < best_distance:
            best_row, best_distance = row, distance
    return best_row
