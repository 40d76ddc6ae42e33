"""Candidate evaluators: design-space points through the chapter models.

Each evaluator is a module-level function (picklable, so the
:class:`~repro.runtime.SweepExecutor` can fan candidates out to a process
pool) that takes one candidate's parameter dictionary and returns a flat,
JSON-able metrics dictionary.  Evaluators are registered by name in
:data:`EVALUATORS`; the name plus the parameters form the content address
under which the :class:`~repro.runtime.ResultCache` deduplicates evaluations
across explorations and processes.

* ``"chip"`` -- builds the pod/chip described by the candidate, provisions
  memory channels for worst-case demand, and reports the paper's chip-level
  metrics (performance, density, perf/watt, perf/TCO, reference p99) plus
  budget feasibility.
* ``"sizing"`` -- additionally sizes the minimum SLA-compliant cluster of the
  candidate chip (servers, racks, monthly TCO) via the
  :class:`~repro.service.sizing.ClusterSizer`.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.core.chip import ScaleOutChip
from repro.core.composer import PodEvaluation, compose_chip
from repro.memory.dram import channel_for_standard
from repro.perfmodel.analytic import AnalyticPerformanceModel, Pod
from repro.service.calibration import calibrate_chip
from repro.service.sizing import ClusterSizer, MmkQueue, SlaInfeasibleError
from repro.tco.datacenter import DatacenterDesign
from repro.technology.node import get_node
from repro.workloads.suite import WorkloadSuite, default_suite

#: Versioned token prefix for evaluation cache keys; bump on schema changes.
EVALUATION_VERSION = 1


def suite_for(name: str) -> WorkloadSuite:
    """Resolve a workload-suite axis value to a :class:`WorkloadSuite`.

    Known names: ``"default"`` (the full CloudSuite) and
    ``"latency_sensitive"`` (its latency-sensitive sub-suite).
    """
    suite = default_suite()
    if name == "default":
        return suite
    if name == "latency_sensitive":
        return suite.latency_sensitive()
    raise KeyError(
        f"unknown workload suite {name!r}; known: default, latency_sensitive"
    )


#: Chip design knobs, in label order; they also name the candidate's chip.
_DESIGN_KEYS = ("core_type", "cores_per_pod", "llc_per_pod_mb", "interconnect",
                "pods_per_chip", "node")


def _design_label(params: "Mapping[str, object]") -> str:
    """Label of the chip design knobs only (used as the chip name)."""
    return "/".join(str(params[key]) for key in _DESIGN_KEYS if key in params)


def candidate_label(params: "Mapping[str, object]") -> str:
    """Compact human-readable identity of one candidate.

    Chip design knobs come first in canonical order; any other axes
    (e.g. the sizing study's ``memory_gb``) are appended as ``key=value`` so
    that candidates differing only on those axes stay distinguishable.
    """
    parts = [str(params[key]) for key in _DESIGN_KEYS if key in params]
    parts.extend(
        f"{key}={params[key]}" for key in sorted(params) if key not in _DESIGN_KEYS
    )
    return "/".join(parts) if parts else repr(dict(params))


def _build_chip(params: "Mapping[str, object]", suite: WorkloadSuite,
                model: AnalyticPerformanceModel) -> ScaleOutChip:
    """The candidate's chip: pod x pods-per-chip with demand-provisioned channels."""
    node = get_node(str(params.get("node", "40nm")))
    pod = Pod(
        cores=int(params["cores_per_pod"]),  # type: ignore[arg-type]
        core_type=str(params.get("core_type", "ooo")),
        llc_capacity_mb=float(params["llc_per_pod_mb"]),  # type: ignore[arg-type]
        interconnect=str(params.get("interconnect", "crossbar")),
        node=node,
    )
    return compose_chip(
        PodEvaluation.of(pod, model, suite),
        int(params.get("pods_per_chip", 1)),  # type: ignore[arg-type]
        channel_for_standard(node.memory_standard),
        _design_label(params),
    )


def evaluate_chip_candidate(params: "Mapping[str, object]") -> "dict[str, object]":
    """Chip-level metrics for one candidate (picklable; see module docstring).

    Args:
        params: candidate dictionary with axes ``core_type``, ``cores_per_pod``,
            ``llc_per_pod_mb``, ``interconnect``, ``pods_per_chip``, ``node``,
            ``suite``, and optional ``workload`` / ``reference_utilization``
            for the service-latency reference metric.

    Returns:
        Flat metrics: total cores/LLC/channels, die area, power, performance,
        performance density, perf/watt, perf/TCO (x1000), reference p99 (ms),
        and budget feasibility (``fits_budgets`` / ``limiting_constraint``).
    """
    model = AnalyticPerformanceModel()
    suite = suite_for(str(params.get("suite", "default")))
    chip = _build_chip(params, suite, model)
    performance = chip.performance()
    datacenter = DatacenterDesign(model=model)
    dc_result = datacenter.evaluate(chip)

    workload = suite[str(params.get("workload", "Web Search"))]
    utilization = float(params.get("reference_utilization", 0.8))  # type: ignore[arg-type]
    capacity = calibrate_chip(chip, workload, model)
    queue = MmkQueue(
        servers=capacity.units_per_chip,
        service_rate_rps=capacity.unit_rate_rps,
        arrival_rate_rps=utilization * capacity.chip_rate_rps,
    )
    p99 = queue.latency_quantile(0.99)

    return {
        "cores": chip.total_cores,
        "llc_mb": chip.total_llc_mb,
        "memory_channels": chip.memory_channels,
        "die_area_mm2": round(chip.die_area_mm2, 2),
        "power_w": round(chip.power_w, 2),
        "performance": round(performance, 4),
        "performance_density": round(performance / chip.die_area_mm2, 6),
        "performance_per_watt": round(performance / chip.power_w, 6),
        "performance_per_tco": round(dc_result.performance_per_tco, 6),
        "p99_ms": round(p99 * 1e3, 4) if math.isfinite(p99) else None,
        "fits_budgets": chip.satisfies(chip.node.constraints),
        "limiting_constraint": chip.limiting_constraint(chip.node.constraints),
    }


def evaluate_sizing_candidate(params: "Mapping[str, object]") -> "dict[str, object]":
    """Cluster-sizing metrics for one candidate chip under a QPS + SLA target.

    Args:
        params: the chip axes of :func:`evaluate_chip_candidate` plus
            ``workload`` (profile name), ``target_qps``, ``sla_p99_ms``, and
            ``memory_gb``.

    Returns:
        The chip feasibility metrics plus ``servers``, ``racks``,
        ``monthly_tco_usd``, ``tco_per_million_qps_usd``, achieved ``p99_ms``,
        per-server ``utilization``, and ``sla_feasible``.  When the SLA cannot
        be met at any cluster size the sizing metrics are ``None`` and
        ``sla_feasible`` is ``False``.
    """
    model = AnalyticPerformanceModel()
    suite = suite_for(str(params.get("suite", "default")))
    chip = _build_chip(params, suite, model)
    workload = suite[str(params.get("workload", "Web Search"))]
    target_qps = float(params["target_qps"])  # type: ignore[arg-type]
    sla_p99_s = float(params["sla_p99_ms"]) / 1e3  # type: ignore[arg-type]
    memory_gb = int(params.get("memory_gb", 64))  # type: ignore[arg-type]

    metrics: "dict[str, object]" = {
        "cores": chip.total_cores,
        "llc_mb": chip.total_llc_mb,
        "die_area_mm2": round(chip.die_area_mm2, 2),
        "power_w": round(chip.power_w, 2),
        "fits_budgets": chip.satisfies(chip.node.constraints),
    }
    sizer = ClusterSizer(DatacenterDesign(model=model), memory_gb=memory_gb)
    try:
        result = sizer.size(chip, workload, target_qps=target_qps, sla_p99_s=sla_p99_s)
    except SlaInfeasibleError as error:
        metrics.update(
            sla_feasible=False,
            sla_reason=str(error),
            servers=None,
            racks=None,
            utilization=None,
            p99_ms=None,
            monthly_tco_usd=None,
            tco_per_million_qps_usd=None,
        )
        return metrics
    metrics.update(
        sla_feasible=True,
        sla_reason="",
        servers=result.servers,
        racks=result.racks,
        utilization=round(result.utilization, 4),
        p99_ms=round(result.p99_s * 1e3, 4),
        monthly_tco_usd=round(result.monthly_tco_usd, 2),
        tco_per_million_qps_usd=round(result.tco_per_million_qps, 2),
    )
    return metrics


#: Evaluators by name; the name is part of every evaluation's cache address.
EVALUATORS = {
    "chip": evaluate_chip_candidate,
    "sizing": evaluate_sizing_candidate,
}


def run_evaluator(name: str, params: "Mapping[str, object]") -> "dict[str, object]":
    """Dispatch one candidate to a registered evaluator (pool-worker entry)."""
    try:
        evaluator = EVALUATORS[name]
    except KeyError:
        raise KeyError(f"unknown evaluator {name!r}; known: {sorted(EVALUATORS)}") from None
    return evaluator(params)


def evaluation_token(name: str) -> str:
    """Cache-token prefix identifying one evaluator at the current version."""
    if name not in EVALUATORS:
        raise KeyError(f"unknown evaluator {name!r}; known: {sorted(EVALUATORS)}")
    return f"repro.dse.evaluate.{name}@v{EVALUATION_VERSION}"
