"""Analytic chip-level performance model and performance-density metric."""

from repro.perfmodel.amat import CpiBreakdown, LlcAccessLatency
from repro.perfmodel.analytic import AnalyticPerformanceModel, PerformanceEstimate, Pod
from repro.perfmodel.density import AreaBudget, performance_density
from repro.perfmodel.validation import ValidationPoint, ValidationReport, validate_against

__all__ = [
    "CpiBreakdown",
    "LlcAccessLatency",
    "AnalyticPerformanceModel",
    "PerformanceEstimate",
    "Pod",
    "AreaBudget",
    "performance_density",
    "ValidationPoint",
    "ValidationReport",
    "validate_against",
]
