"""Declarative design spaces: named axes, constraints, enumeration, sampling.

A :class:`DesignSpace` is the cross product of named :class:`Axis` value lists
(core model x pods per chip x LLC capacity x NoC topology x technology node x
workload suite, or any other set of knobs) restricted by named
:class:`Constraint` predicates.  Two kinds of constraint exist:

* **parameter constraints** see only the candidate's axis values and prune the
  space *before* any model runs (e.g. "no 64-core crossbar pods");
* **metric constraints** see the evaluated metrics and prune *after* the model
  runs (e.g. area or power caps, SLA feasibility) -- they are applied by the
  :class:`~repro.dse.explorer.Explorer`, which keeps infeasible candidates in
  the result flagged ``feasible=False``.

Enumeration order is deterministic (row-major over the axes in declaration
order) and :meth:`DesignSpace.sample` draws a seeded subset, so serial and
parallel exploration of the same space evaluate the same candidates.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Mapping, Sequence


class EmptyDesignSpaceError(ValueError):
    """Raised when constraints (or empty axes) leave nothing to explore."""


@dataclass(frozen=True)
class Axis:
    """One named dimension of a design space.

    Attributes:
        name: axis name; becomes the candidate dictionary key.
        values: the discrete values this axis can take, in sweep order.
    """

    name: str
    values: "tuple[object, ...]"

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("axis name must be non-empty")
        if not self.values:
            raise ValueError(f"axis {self.name!r} needs at least one value")
        if len(set(map(repr, self.values))) != len(self.values):
            raise ValueError(f"axis {self.name!r} has duplicate values")

    def __len__(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Constraint:
    """A named predicate over a candidate (or its metrics).

    Attributes:
        name: short label used in error messages and result stats.
        predicate: callable receiving the candidate/metrics dictionary and
            returning truth (keep) or falsehood (prune).
    """

    name: str
    predicate: "Callable[[Mapping[str, object]], bool]"

    def accepts(self, values: "Mapping[str, object]") -> bool:
        """Whether ``values`` satisfies this constraint."""
        return bool(self.predicate(values))


@dataclass(frozen=True)
class DesignSpace:
    """A named cross product of axes with constraint predicates.

    Attributes:
        axes: the dimensions, in declaration (enumeration) order.
        constraints: parameter constraints applied during enumeration.
        metric_constraints: constraints over evaluated metrics, applied by the
            explorer after candidates run through the models.
    """

    axes: "tuple[Axis, ...]"
    constraints: "tuple[Constraint, ...]" = ()
    metric_constraints: "tuple[Constraint, ...]" = ()

    def __post_init__(self) -> None:
        if not self.axes:
            raise ValueError("a DesignSpace needs at least one axis")
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate axis names: {sorted(names)}")

    # -------------------------------------------------------------- geometry
    @property
    def axis_names(self) -> "list[str]":
        """Axis names in declaration order."""
        return [axis.name for axis in self.axes]

    @property
    def size(self) -> int:
        """Unconstrained cardinality (product of axis lengths)."""
        total = 1
        for axis in self.axes:
            total *= len(axis)
        return total

    def axis(self, name: str) -> Axis:
        """Look one axis up by name."""
        for candidate in self.axes:
            if candidate.name == name:
                return candidate
        raise KeyError(f"unknown axis {name!r}; known: {self.axis_names}")

    # ----------------------------------------------------------- enumeration
    def _raw_candidates(self) -> "Iterator[dict[str, object]]":
        """Row-major cross product of all axes, unconstrained."""
        names = self.axis_names
        for combo in itertools.product(*(axis.values for axis in self.axes)):
            yield dict(zip(names, combo))

    def _feasible_candidates(self) -> "Iterator[dict[str, object]]":
        """Stream candidates passing the parameter constraints, in stable order."""
        for candidate in self._raw_candidates():
            if all(c.accepts(candidate) for c in self.constraints):
                yield candidate

    def _raise_empty(self) -> None:
        names = [c.name for c in self.constraints]
        raise EmptyDesignSpaceError(
            f"all {self.size} candidates were filtered out by the parameter "
            f"constraints {names}; relax a constraint or widen an axis"
        )

    def feasible_count(self) -> int:
        """Number of candidates passing the parameter constraints.

        Streams over the cross product without materializing it, so it is
        usable on spaces far too large to :meth:`enumerate`.
        """
        return sum(1 for _ in self._feasible_candidates())

    def enumerate(self) -> "list[dict[str, object]]":
        """All candidates passing the parameter constraints, in stable order.

        Raises:
            EmptyDesignSpaceError: if the constraints prune every candidate,
                naming the constraints so the caller can see what to relax.
        """
        candidates = list(self._feasible_candidates())
        if not candidates:
            self._raise_empty()
        return candidates

    def sample(self, count: int, seed: int = 0) -> "list[dict[str, object]]":
        """A seeded, order-preserving subset of the constrained enumeration.

        Streams over the cross product twice (a counting pass, then a
        collection pass over a seeded index set), so memory is O(count) even
        for million-candidate spaces -- the full enumeration is never
        materialized.  The selected subset is identical to what the historical
        materialize-then-sample implementation picked for the same seed.

        Args:
            count: number of candidates to keep (every feasible candidate is
                returned when ``count`` meets or exceeds the feasible count).
            seed: RNG seed; the same seed always selects the same subset.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        total = self.feasible_count()
        if total == 0:
            self._raise_empty()
        if count >= total:
            return list(self._feasible_candidates())
        picked = set(random.Random(seed).sample(range(total), count))
        selection: "list[dict[str, object]]" = []
        for index, candidate in enumerate(self._feasible_candidates()):
            if index in picked:
                selection.append(candidate)
                if len(selection) == count:
                    break
        return selection

    # ------------------------------------------------------------- describe
    def describe(self) -> "dict[str, object]":
        """JSON-able summary: axis values and constraint names."""
        return {
            "axes": {axis.name: list(axis.values) for axis in self.axes},
            "size": self.size,
            "constraints": [c.name for c in self.constraints],
            "metric_constraints": [c.name for c in self.metric_constraints],
        }


def node_axis(nodes: "Sequence[object] | None" = None) -> Axis:
    """A ``"node"`` axis over the technology family, validated and normalized.

    Args:
        nodes: node keys (names like ``"40nm"``, bare strings, feature sizes,
            or :class:`~repro.technology.node.TechnologyNode` objects); ``None``
            selects the whole default family, oldest node first.

    Returns:
        An :class:`Axis` named ``"node"`` whose values are canonical node
        names, so candidate dictionaries stay JSON-able and cache keys stay
        stable regardless of how callers spelled the nodes.
    """
    from repro.technology.family import DEFAULT_FAMILY

    if nodes is None:
        names = tuple(DEFAULT_FAMILY.names)
    else:
        names = tuple(DEFAULT_FAMILY.node(key).name for key in nodes)
    return Axis("node", names)
