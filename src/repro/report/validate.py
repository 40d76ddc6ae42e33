"""Tolerance-checked validation of every registered paper claim.

:class:`ReportValidator` collects the claims attached to a spec catalog,
deduplicates the experiments behind them into jobs, fans the uncached jobs out
through a :class:`~repro.runtime.SweepExecutor`, and grades each claim against
its experiment's result.  Caching is owned entirely by the validator's (parent
process) :class:`~repro.runtime.ResultCache`, so serial and parallel execution
produce identical grades and a warm cache re-renders the report without
re-running a single model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Mapping, Sequence

from repro.report.claims import Grade, GradedClaim, PaperClaim, grade_claim
from repro.runtime.cache import ResultCache, result_key
from repro.runtime.executor import SweepExecutor


def _evaluate_job(spec, overrides: "Mapping[str, object]") -> "dict[str, object]":
    """Run one experiment spec for the validator (module-level: pool-picklable).

    The worker computes the raw payload only; cache lookups and stores happen
    in the parent process so results and grades never depend on the backend.
    Taking the spec itself (rather than an id resolved against the global
    registry) keeps custom catalogs working.
    """
    start = perf_counter()
    data = spec.run(**dict(overrides))
    return {"data": data, "wall_time_s": perf_counter() - start}


@dataclass(frozen=True)
class ExperimentCheck:
    """Execution record of one experiment the validator ran (or fetched).

    Attributes:
        experiment_id: catalog id of the experiment.
        chapter: the spec's chapter.
        cache_status: ``"hit"``, ``"miss"``, or ``"disabled"``.
        wall_time_s: seconds spent producing (or fetching) the payload.
        claim_ids: ids of the claims graded against this run.
    """

    experiment_id: str
    chapter: int
    cache_status: str
    wall_time_s: float
    claim_ids: "tuple[str, ...]"


@dataclass
class ValidationRun:
    """All graded claims of one validator invocation, plus run metadata.

    Attributes:
        graded: one :class:`~repro.report.claims.GradedClaim` per claim, in
            registry order.
        experiments: one :class:`ExperimentCheck` per distinct experiment job
            (experiments whose runs coincide share one job).
        chapters: claim chapter by claim id (from the owning spec).
    """

    graded: "list[GradedClaim]" = field(default_factory=list)
    experiments: "list[ExperimentCheck]" = field(default_factory=list)
    chapters: "dict[str, int]" = field(default_factory=dict)

    def count(self, grade: Grade) -> int:
        """Number of claims with the given grade."""
        return sum(1 for item in self.graded if item.grade is grade)

    @property
    def ok(self) -> bool:
        """True when no claim graded ``fail``."""
        return self.count(Grade.FAIL) == 0

    def by_chapter(self) -> "dict[int, list[GradedClaim]]":
        """Graded claims grouped by chapter, in ascending chapter order."""
        grouped: "dict[int, list[GradedClaim]]" = {}
        for item in self.graded:
            grouped.setdefault(self.chapters[item.claim.claim_id], []).append(item)
        return dict(sorted(grouped.items()))

    def experiment_ids(self) -> "list[str]":
        """Ids of the experiments the claims are graded against, in claim order.

        A claim graded against another experiment's run (``figure_5_2``'s
        claims read ``figure_5_1``'s shared run) still names its own
        experiment, so this can list more ids than :attr:`experiments` has
        runs.
        """
        return list(dict.fromkeys(item.claim.experiment_id for item in self.graded))

    def summary(self) -> "dict[str, object]":
        """Headline counts for JSON envelopes and CI gates."""
        return {
            "claims": len(self.graded),
            "pass": self.count(Grade.PASS),
            "warn": self.count(Grade.WARN),
            "fail": self.count(Grade.FAIL),
            "experiments": len(self.experiment_ids()),
            "chapters": sorted({self.chapters[g.claim.claim_id] for g in self.graded}),
        }

    def payload(self) -> "dict[str, object]":
        """Full machine-readable envelope (the CLI's ``--json`` output)."""
        return {
            "summary": self.summary(),
            "claims": [
                {
                    "claim_id": item.claim.claim_id,
                    "experiment_id": item.claim.experiment_id,
                    "chapter": self.chapters[item.claim.claim_id],
                    "source": item.claim.source,
                    "kind": item.claim.kind,
                    "metric": item.claim.metric,
                    "expected": item.claim.expected_display(),
                    "actual": item.actual,
                    "grade": item.grade.value,
                    "detail": item.detail,
                }
                for item in self.graded
            ],
            "experiments": [
                {
                    "experiment_id": check.experiment_id,
                    "chapter": check.chapter,
                    "cache_status": check.cache_status,
                    "wall_time_s": round(check.wall_time_s, 6),
                    "claims": len(check.claim_ids),
                }
                for check in self.experiments
            ],
        }


def select_claims(
    catalog, only: "Sequence[str] | None" = None
) -> "list[PaperClaim]":
    """The catalog's claims, filtered by ``--only``-style tokens.

    Args:
        catalog: a claim-carrying :class:`~repro.runtime.SpecCatalog`.
        only: tokens, each either ``chapterN`` (or ``chN``/``N``), an
            experiment id, or a claim id; the union of matches is kept.

    Raises:
        ValueError: on a token matching no chapter, experiment, or claim.
    """
    claims = list(catalog.claims())
    if not only:
        return claims
    chapters: "set[int]" = set()
    ids: "set[str]" = set()
    claim_ids = {claim.claim_id for claim in claims}
    for token in only:
        text = str(token).strip().lower()
        for prefix in ("chapter", "ch"):
            if text.startswith(prefix) and text[len(prefix):].isdigit():
                text = text[len(prefix):]
                break
        if text.isdigit():
            if int(text) not in catalog.chapters():
                raise ValueError(
                    f"--only token {token!r} names no catalogued chapter "
                    f"(known: {catalog.chapters()})"
                )
            chapters.add(int(text))
        elif token in catalog:
            ids.add(str(token))
        elif token in claim_ids:
            ids.add(str(token))
        else:
            raise ValueError(
                f"--only token {token!r} matches no chapter, experiment, or claim"
            )
    return [
        claim
        for claim in claims
        if claim.claim_id in ids
        or claim.experiment_id in ids
        or catalog.get(claim.experiment_id).chapter in chapters
    ]


class ReportValidator:
    """Grades registered paper claims by running their experiments.

    Args:
        catalog: claim-carrying spec catalog; defaults to the shared
            experiment catalog with :data:`~repro.report.registry.PAPER_CLAIMS`
            attached.
        cache: result cache for experiment payloads; defaults to the
            process-wide cache shared with ``run_experiment``.
        use_cache: disable to force every experiment to recompute.
        executor: sweep executor fanning experiment jobs out; defaults to
            auto mode (process pool for enough jobs, serial otherwise).
    """

    def __init__(
        self,
        catalog=None,
        cache: "ResultCache | None" = None,
        use_cache: bool = True,
        executor: "SweepExecutor | None" = None,
    ):
        if catalog is None:
            from repro.report.registry import claimed_catalog

            catalog = claimed_catalog()
        if cache is None:
            from repro.experiments.registry import DEFAULT_CACHE

            cache = DEFAULT_CACHE
        self.catalog = catalog
        self.cache = cache
        self.use_cache = use_cache
        self.executor = executor or SweepExecutor()

    def _job_overrides(
        self, spec, parameters: "Mapping[str, object]"
    ) -> "dict[str, object]":
        """Claim parameters plus the cache flags cache-aware experiments honour.

        The explore studies memoize their per-candidate model evaluations in
        their own cache; forward ``use_cache=False`` / the disk-backed cache
        to those internal tiers too, so a no-cache report really recomputes
        (mirrors the CLI's ``--no-cache`` / ``--cache-dir`` forwarding).
        """
        from repro.runtime.cache import evaluation_overrides

        overrides = dict(parameters)
        forwarded = evaluation_overrides(spec.function, self.use_cache, self.cache)
        for name, value in forwarded.items():
            overrides.setdefault(name, value)
        return overrides

    def validate(self, only: "Sequence[str] | None" = None) -> ValidationRun:
        """Run the claimed experiments and grade every selected claim.

        Args:
            only: optional ``--only``-style filter tokens (see
                :func:`select_claims`).

        Returns:
            A :class:`ValidationRun`; claim order follows the registry, and
            grades are independent of the executor backend.
        """
        from repro.obs.tracer import get_tracer

        tracer = get_tracer()
        claims = select_claims(self.catalog, only)
        # One job per distinct (experiment, parameters) pair, in first-use order.
        jobs: "dict[str, tuple[str, dict[str, object], list[PaperClaim]]]" = {}
        for claim in claims:
            spec = self.catalog.get(claim.experiment_id)
            overrides = self._job_overrides(spec, claim.parameters)
            merged = spec.merged_kwargs(overrides)
            key = result_key(spec.cache_token, merged)
            if key not in jobs:
                jobs[key] = (claim.experiment_id, overrides, [])
            jobs[key][2].append(claim)

        with tracer.span(
            "report.validate", category="report", claims=len(claims), jobs=len(jobs)
        ) as validate_span:
            envelopes: "dict[str, dict[str, object]]" = {}
            checks: "list[ExperimentCheck]" = []
            pending: "list[tuple[str, str, dict[str, object]]]" = []
            for key, (experiment_id, overrides, job_claims) in jobs.items():
                data = self.cache.get(key, category="report") if self.use_cache else None
                if data is not None:
                    envelopes[key] = {"data": data, "cache_status": "hit", "wall_time_s": 0.0}
                else:
                    pending.append((key, experiment_id, overrides))
            computed = self.executor.map(
                _evaluate_job,
                [
                    (self.catalog.get(experiment_id), overrides)
                    for _, experiment_id, overrides in pending
                ],
            )
            for (key, _, _), outcome in zip(pending, computed):
                status = "miss" if self.use_cache else "disabled"
                if self.use_cache:
                    self.cache.put(key, outcome["data"], category="report")
                envelopes[key] = {
                    "data": outcome["data"],
                    "cache_status": status,
                    "wall_time_s": outcome["wall_time_s"],
                }

            run = ValidationRun()
            for key, (experiment_id, _, job_claims) in jobs.items():
                spec = self.catalog.get(experiment_id)
                outcome = envelopes[key]
                view = _result_view(outcome["data"])
                checks.append(
                    ExperimentCheck(
                        experiment_id=experiment_id,
                        chapter=spec.chapter,
                        cache_status=str(outcome["cache_status"]),
                        wall_time_s=float(outcome["wall_time_s"]),  # type: ignore[arg-type]
                        claim_ids=tuple(claim.claim_id for claim in job_claims),
                    )
                )
                for claim in job_claims:
                    with tracer.span(
                        "report.claim",
                        category="report",
                        claim=claim.claim_id,
                        experiment=experiment_id,
                    ) as claim_span:
                        graded = grade_claim(claim, view)
                        claim_span.annotate(grade=graded.grade.value)
                    run.graded.append(graded)
                    run.chapters[claim.claim_id] = spec.chapter
            # Report claims in registry order regardless of job completion order.
            order = {claim.claim_id: index for index, claim in enumerate(claims)}
            run.graded.sort(key=lambda item: order[item.claim.claim_id])
            run.experiments = checks
            validate_span.annotate(
                computed=len(pending), cached=len(jobs) - len(pending)
            )
        return run


def _result_view(data: object) -> "dict[str, object]":
    """Normalize a raw experiment payload into the metric-path envelope."""
    from repro.runtime.spec import ExperimentResult

    return {"rows": ExperimentResult(experiment_id="", data=data).rows, "data": data}
