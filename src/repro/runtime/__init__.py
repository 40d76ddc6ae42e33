"""Unified experiment runtime.

The runtime decouples *what* an experiment is (:class:`ExperimentSpec`,
collected in a :class:`SpecCatalog`) from *how* it runs (:class:`SweepExecutor`
fanning independent design points over a process pool) and *whether it needs to
run at all* (:class:`ResultCache`, content-addressed by computation identity
and canonicalized arguments).  Every table and figure in the repo is produced
through this machinery; ``python -m repro`` drives it from the command line.
"""

from repro.runtime.cache import CACHE_DIR_ENV, ResultCache, canonicalize, result_key
from repro.runtime.catalog import SpecCatalog, UnknownExperimentError
from repro.runtime.executor import (
    EXECUTOR_ENV,
    MAX_WORKERS_ENV,
    SERIAL_EXECUTOR,
    SweepExecutor,
)
from repro.runtime.spec import ExperimentResult, ExperimentSpec

__all__ = [
    "CACHE_DIR_ENV",
    "EXECUTOR_ENV",
    "MAX_WORKERS_ENV",
    "SERIAL_EXECUTOR",
    "ExperimentResult",
    "ExperimentSpec",
    "ResultCache",
    "SpecCatalog",
    "SweepExecutor",
    "UnknownExperimentError",
    "canonicalize",
    "result_key",
]
