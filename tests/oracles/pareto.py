"""Pure-Python O(n^2) dominance loop: the oracle for ``pareto_frontier``.

Every semantic the package's vectorized kernel must preserve is defined
here: ties survive together, the frontier keeps input order, dominance is
evaluated within each group, and a single-member group never converts its
metric values.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.dse.pareto import Objective, _group_key, dominates


def pareto_frontier_reference(
    rows: "Sequence[Mapping[str, object]]",
    objectives: "Sequence[Objective]",
    group_by: "str | Sequence[str] | None" = None,
) -> "list[Mapping[str, object]]":
    """The non-dominated subset of ``rows``, one ``dominates`` call per pair."""
    if not rows:
        return []
    groups: "dict[object, list[Mapping[str, object]]]" = {}
    for row in rows:
        groups.setdefault(_group_key(row, group_by), []).append(row)
    frontier_ids = set()
    for members in groups.values():
        for row in members:
            if not any(
                dominates(other, row, objectives)
                for other in members
                if other is not row
            ):
                frontier_ids.add(id(row))
    return [row for row in rows if id(row) in frontier_ids]
