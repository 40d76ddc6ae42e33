"""Spec catalog: lookup of experiments by id, chapter, kind, and claims.

Besides the spec lookup, a catalog carries *paper claims* -- expected-value
records (see :mod:`repro.report.claims`) attached to the experiment that
reproduces them -- so any figure/table/study/explore spec can declare what the
source paper says about its output and the report subsystem can grade it.
Claims are duck-typed here (anything with ``claim_id`` and ``experiment_id``
attributes) to keep the runtime layer free of report-layer imports.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.runtime.spec import ExperimentSpec


class UnknownExperimentError(KeyError):
    """Raised for an experiment id the catalog does not know about."""

    def __init__(self, experiment_id: str, known: "Iterable[str]"):
        super().__init__(
            f"unknown experiment {experiment_id!r}; known: {sorted(known)}"
        )
        self.experiment_id = experiment_id


class SpecCatalog:
    """An ordered, queryable collection of :class:`ExperimentSpec`."""

    def __init__(self, specs: "Iterable[ExperimentSpec]" = ()):
        self._specs: "dict[str, ExperimentSpec]" = {}
        self._claims: "dict[str, list]" = {}
        for spec in specs:
            self.register(spec)

    def register(self, spec: ExperimentSpec) -> ExperimentSpec:
        """Add a spec; ids must be unique."""
        if spec.experiment_id in self._specs:
            raise ValueError(f"duplicate experiment id {spec.experiment_id!r}")
        self._specs[spec.experiment_id] = spec
        return spec

    def get(self, experiment_id: str) -> ExperimentSpec:
        """Look one spec up by id; raises :class:`UnknownExperimentError`."""
        try:
            return self._specs[experiment_id]
        except KeyError:
            raise UnknownExperimentError(experiment_id, self._specs) from None

    def ids(self) -> "list[str]":
        """All experiment ids, in registration order."""
        return list(self._specs)

    def select(
        self, chapter: "int | None" = None, kind: "str | None" = None
    ) -> "list[ExperimentSpec]":
        """All specs matching the given chapter and/or kind filters."""
        return [
            spec
            for spec in self._specs.values()
            if (chapter is None or spec.chapter == chapter)
            and (kind is None or spec.kind == kind)
        ]

    def by_chapter(self, chapter: int) -> "list[ExperimentSpec]":
        """All specs belonging to ``chapter``."""
        return self.select(chapter=chapter)

    def by_kind(self, kind: str) -> "list[ExperimentSpec]":
        """All specs of the given kind (figure/table/study/explore)."""
        return self.select(kind=kind)

    # ------------------------------------------------------------- claims
    def attach_claims(self, claims: "Iterable[object]") -> None:
        """Attach paper claims to the specs that reproduce them.

        Args:
            claims: objects with ``claim_id`` and ``experiment_id``
                attributes (see :class:`repro.report.claims.PaperClaim`).

        Raises:
            UnknownExperimentError: if a claim names an uncatalogued spec.
            ValueError: on a duplicate claim id.
        """
        # Validate the whole batch before mutating, so a bad claim can be
        # fixed and the batch re-attached without wedging the catalog.
        known = {claim.claim_id for claim in self.claims()}
        staged = []
        for claim in claims:
            self.get(claim.experiment_id)  # raises UnknownExperimentError
            if claim.claim_id in known:
                raise ValueError(f"duplicate claim id {claim.claim_id!r}")
            known.add(claim.claim_id)
            staged.append(claim)
        for claim in staged:
            self._claims.setdefault(claim.experiment_id, []).append(claim)

    def claims(self) -> "list[object]":
        """Every attached claim, grouped by spec in registration order."""
        return [
            claim
            for spec_id in self._specs
            for claim in self._claims.get(spec_id, ())
        ]

    def chapters(self) -> "list[int]":
        """Sorted chapter numbers present in the catalog."""
        return sorted({spec.chapter for spec in self._specs.values()})

    def __contains__(self, experiment_id: object) -> bool:
        return experiment_id in self._specs

    def __iter__(self) -> "Iterator[ExperimentSpec]":
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)
