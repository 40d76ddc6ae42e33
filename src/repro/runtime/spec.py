"""Experiment specifications and the typed result envelope.

An :class:`ExperimentSpec` describes one reproducible artifact of the paper (a
table or a figure): which chapter it belongs to, the function that regenerates
its data, the default parameters, and a one-line description of what it
produces.  Running a spec yields an :class:`ExperimentResult` -- the raw data
plus provenance (which function ran, with which arguments), the wall-clock cost,
and whether the result came from the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one table/figure experiment.

    Attributes:
        experiment_id: registry id, e.g. ``"figure_4_6"`` or ``"table_3_2"``.
        chapter: evaluation chapter the artifact belongs to (2-6; beyond-paper
            studies use 7).
        kind: ``"figure"`` or ``"table"`` for the paper's artifacts, ``"study"``
            for beyond-paper experiments (e.g. the service-level studies), or
            ``"explore"`` for design-space explorations.
        function: callable that regenerates the data.
        parameters: default keyword arguments applied before caller overrides.
        produces: one-line description of the artifact.
        version: bump when the experiment's output schema changes, so stale
            on-disk cache entries written by older code stop matching.
    """

    experiment_id: str
    chapter: int
    kind: str
    function: Callable[..., object]
    parameters: Mapping[str, object] = field(default_factory=dict)
    produces: str = ""
    version: int = 1

    KINDS = ("figure", "table", "study", "explore")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}, got {self.kind!r}")

    @property
    def cache_token(self) -> str:
        """Identity of the underlying computation, shared by aliased specs.

        Figures 5.1/5.2 (and 5.3/5.4) are produced by one function; keying the
        cache on the function rather than the experiment id lets the shared
        computation run once.  Version 1 keeps the historical token so existing
        caches stay valid; later versions salt the token to shed stale entries.
        """
        token = f"{self.function.__module__}.{self.function.__qualname__}"
        if self.version != 1:
            token += f"@v{self.version}"
        return token

    def merged_kwargs(self, overrides: "Mapping[str, object] | None" = None) -> "dict[str, object]":
        """Spec defaults overlaid with caller overrides."""
        merged = dict(self.parameters)
        if overrides:
            merged.update(overrides)
        return merged

    def run(self, **overrides: object) -> object:
        """Execute the experiment function with defaults + overrides."""
        return self.function(**self.merged_kwargs(overrides))

    def accepted_parameters(self) -> "tuple[str, ...] | None":
        """Keyword names the experiment function takes, in signature order.

        ``None`` when the function takes ``**kwargs`` and so accepts any name.
        """
        import inspect

        parameters = inspect.signature(self.function).parameters
        if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values()):
            return None
        return tuple(parameters)


@dataclass
class ExperimentResult:
    """Typed envelope returned by :func:`repro.experiments.registry.run_experiment`.

    Attributes:
        experiment_id: id of the spec that produced the data.
        data: raw return value of the experiment function (usually a list of
            row dicts; ``figure_3_5`` returns a dict with a ``"sweep"`` key).
        provenance: how the data was produced (function, kwargs, cache key).
        wall_time_s: wall-clock seconds spent producing (or fetching) the data,
            including cache traffic (kept for backward compatibility).
        cache_status: ``"miss"`` (computed and stored), ``"hit"`` (served from
            the cache), or ``"disabled"`` (computed with caching off).
        compute_time_s: seconds spent inside the experiment function itself
            (0 for cache hits); ``wall_time_s - compute_time_s`` is the cache
            fetch/store overhead.
        telemetry: counter totals, per-category cache accounting, and phase
            timings for this run (see :mod:`repro.obs.telemetry`); ``None``
            unless a tracer was enabled, so untraced envelopes serialize
            exactly as they did before telemetry existed.
    """

    experiment_id: str
    data: object
    provenance: "dict[str, object]" = field(default_factory=dict)
    wall_time_s: float = 0.0
    cache_status: str = "disabled"
    compute_time_s: float = 0.0
    telemetry: "dict[str, object] | None" = None

    @property
    def rows(self) -> "list[dict[str, object]]":
        """The data normalized to a list of row dictionaries.

        Dict payloads with a ``"sweep"`` (``figure_3_5``) or ``"candidates"``
        (exploration studies) list normalize to that list.
        """
        if isinstance(self.data, dict):
            for key in ("sweep", "candidates"):
                value = self.data.get(key)
                if isinstance(value, list):
                    return value
            return [self.data]
        if isinstance(self.data, list):
            return self.data
        return [{"value": self.data}]

    @property
    def cached(self) -> bool:
        """Whether this result was served from the cache."""
        return self.cache_status == "hit"
