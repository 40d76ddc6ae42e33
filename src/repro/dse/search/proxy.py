"""Cheap analytic screening proxies for the successive-halving driver.

A proxy approximates a registered evaluator's metrics at a fraction of its
cost, so the halving driver can rank a large candidate pool without running
the full models.  Fidelity is the number of suite workloads the analytic
estimate aggregates over (1 = cheapest, ``len(suite)`` = the evaluator's own
workload set); higher-fidelity rungs re-rank the survivors more accurately.

The proxies deliberately skip the expensive stages of the real evaluators --
the chip proxy drops the datacenter TCO model and the reference M/M/k queue,
and the sizing proxy replaces the minimum-server binary search with a
fixed-utilization point sizing -- while emitting metric dictionaries under the
*same keys* the objectives and metric constraints reference, so the dominance
machinery ranks proxy rows exactly as it ranks real rows.  Proxy metrics never
enter the evaluation cache and never appear in exploration results; they only
order candidates between rungs.
"""

from __future__ import annotations

import math
from typing import Mapping

from repro.dse.evaluate import EVALUATORS, _build_chip, suite_for
from repro.perfmodel.analytic import AnalyticPerformanceModel
from repro.service.calibration import calibrate_chip
from repro.service.sizing import _EXP_P99_FACTOR, MmkQueue
from repro.tco.datacenter import DatacenterDesign
from repro.workloads.suite import WorkloadSuite

#: Per-server utilization the sizing proxy points at instead of searching.
_PROXY_UTILIZATION = 0.85


def _partial_suite(params: "Mapping[str, object]", fidelity: int) -> WorkloadSuite:
    """The first ``fidelity`` workloads of the candidate's suite (at least one)."""
    suite = suite_for(str(params.get("suite", "default")))
    fidelity = max(1, min(int(fidelity), len(suite)))
    return WorkloadSuite(suite.workloads[:fidelity])


def proxy_fidelity_limit(params: "Mapping[str, object]") -> int:
    """Highest meaningful fidelity for a candidate (its suite's workload count)."""
    return len(suite_for(str(params.get("suite", "default"))))


def chip_proxy(params: "Mapping[str, object]", fidelity: int) -> "dict[str, object]":
    """Analytic approximation of ``evaluate_chip_candidate``.

    Builds the candidate chip against a ``fidelity``-workload sub-suite and
    reports performance, density, perf/watt, and budget feasibility; the TCO
    and reference-latency stages of the full evaluator are skipped entirely.
    """
    model = AnalyticPerformanceModel()
    suite = _partial_suite(params, fidelity)
    chip = _build_chip(params, suite, model)
    performance = chip.performance()
    return {
        "performance": performance,
        "performance_density": performance / chip.die_area_mm2,
        "performance_per_watt": performance / chip.power_w,
        "fits_budgets": chip.satisfies(chip.node.constraints),
    }


def sizing_proxy(params: "Mapping[str, object]", fidelity: int) -> "dict[str, object]":
    """Analytic approximation of ``evaluate_sizing_candidate``.

    Replaces the SLA-driven minimum-server search with a closed-form point
    sizing: servers for a fixed per-unit utilization, one Erlang-C p99 check,
    and one closed-form monthly-TCO evaluation.  SLA feasibility is judged
    from the zero-load p99 (the same condition the real sizer raises on).
    """
    model = AnalyticPerformanceModel()
    suite = _partial_suite(params, fidelity)
    chip = _build_chip(params, suite, model)
    full_suite = suite_for(str(params.get("suite", "default")))
    workload = full_suite[str(params.get("workload", "Web Search"))]
    target_qps = float(params["target_qps"])  # type: ignore[arg-type]
    sla_p99_s = float(params["sla_p99_ms"]) / 1e3  # type: ignore[arg-type]
    memory_gb = int(params.get("memory_gb", 64))  # type: ignore[arg-type]

    metrics: "dict[str, object]" = {
        "fits_budgets": chip.satisfies(chip.node.constraints),
    }
    capacity = calibrate_chip(chip, workload, model)
    zero_load_p99 = _EXP_P99_FACTOR / capacity.unit_rate_rps
    if zero_load_p99 > sla_p99_s:
        metrics.update(sla_feasible=False, monthly_tco_usd=None, p99_ms=None)
        return metrics

    datacenter = DatacenterDesign(model=model)
    server = datacenter.build_server(chip, memory_gb=memory_gb)
    units = capacity.units_per_chip * server.sockets
    per_server_capacity = units * capacity.unit_rate_rps
    servers = max(1, math.ceil(target_qps / (per_server_capacity * _PROXY_UTILIZATION)))
    queue = MmkQueue(
        servers=units,
        service_rate_rps=capacity.unit_rate_rps,
        arrival_rate_rps=target_qps / servers,
    )
    p99_s = queue.latency_quantile(0.99)
    racks = max(1, math.ceil(servers / server.servers_per_rack()))
    price = datacenter.pricing.price(chip.name, chip.die_area_mm2)
    tco = datacenter.tco_model.monthly_tco(server, servers, racks, price)
    metrics.update(
        sla_feasible=bool(math.isfinite(p99_s) and p99_s <= sla_p99_s * 4.0),
        monthly_tco_usd=tco.total,
        p99_ms=p99_s * 1e3 if math.isfinite(p99_s) else None,
    )
    return metrics


#: Proxy per evaluator name; keys mirror :data:`repro.dse.evaluate.EVALUATORS`.
PROXIES = {
    "chip": chip_proxy,
    "sizing": sizing_proxy,
}

assert set(PROXIES) == set(EVALUATORS), "every evaluator needs a screening proxy"


def run_proxy(
    name: str, params: "Mapping[str, object]", fidelity: int
) -> "dict[str, object]":
    """Dispatch one candidate to the named evaluator's screening proxy."""
    try:
        proxy = PROXIES[name]
    except KeyError:
        raise KeyError(f"no screening proxy for {name!r}; known: {sorted(PROXIES)}") from None
    return proxy(params, fidelity)
