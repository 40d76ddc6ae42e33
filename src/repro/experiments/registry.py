"""Spec catalog mapping experiment ids (table/figure numbers) to their specs.

The catalog replaces the original bare ``{id: callable}`` dict: every artifact
is an :class:`~repro.runtime.ExperimentSpec` carrying its chapter, kind, and
description, so callers can enumerate by chapter (``CATALOG.by_chapter(4)``),
by kind (``CATALOG.by_kind("table")``), or drive everything from the
``python -m repro`` command line.

:func:`run_experiment` executes one spec through the shared result cache and
returns an :class:`~repro.runtime.ExperimentResult` envelope; callers read
its ``.rows``, ``.wall_time_s``, ``.cache_status``, and ``.provenance``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable

from repro.dse import studies as dse_studies
from repro.experiments import chapter2, chapter3, chapter4, chapter5, chapter6, service
from repro.experiments import faults as fault_studies
from repro.experiments import fleet as fleet_studies
from repro.experiments import technology as technology_studies
from repro.runtime import (
    ExperimentResult,
    ExperimentSpec,
    ResultCache,
    SpecCatalog,
    result_key,
)
from repro.runtime.cache import code_fingerprint


#: Chapter number used for beyond-paper studies (the paper evaluates 2-6).
SERVICE_CHAPTER = 7

#: Chapter number used for design-space explorations (``kind="explore"``).
DSE_CHAPTER = 8

#: Chapter number used for fault-injection / dependability studies.
FAULTS_CHAPTER = 9

#: Chapter number used for fleet-scale traffic studies.
FLEET_CHAPTER = 10

#: Chapter number used for technology-node family studies (90nm->7nm).
TECHNOLOGY_CHAPTER = 11


def _spec(
    experiment_id: str,
    function: "Callable[..., object]",
    produces: str,
    chapter: "int | None" = None,
    kind: str = "study",
    version: int = 1,
) -> ExperimentSpec:
    """One catalog entry.

    A paper artifact's id (``figure_2_1``, ``table_3_2``) names its own kind
    and chapter, so it passes neither; every other entry passes ``chapter``.
    """
    if chapter is None:
        kind, chapter_str, _ = experiment_id.split("_", 2)
        chapter = int(chapter_str)
    return ExperimentSpec(
        experiment_id=experiment_id,
        chapter=chapter,
        kind=kind,
        function=function,
        produces=produces,
        version=version,
    )


#: Every table and figure of the paper's evaluation, as a queryable catalog.
CATALOG = SpecCatalog(
    [
        _spec("figure_2_1", chapter2.figure_2_1_application_ipc, "Application IPC on an aggressive OoO core"),
        _spec("figure_2_2", chapter2.figure_2_2_llc_sensitivity, "Performance vs LLC capacity, normalized to 1 MB"),
        _spec("figure_2_3", chapter2.figure_2_3_core_scaling, "Per-core and aggregate performance vs core count"),
        _spec("table_2_1", chapter2.table_2_1_components, "Component area and power estimates"),
        _spec("table_2_3", chapter2.table_2_3_designs_40nm, "Processor design comparison at 40nm"),
        _spec("table_2_4", chapter2.table_2_4_designs_20nm, "Processor design comparison at 20nm"),
        _spec("figure_3_3", chapter3.figure_3_3_model_validation, "Analytic model vs cycle-level simulation"),
        _spec("figure_3_4", chapter3.figure_3_4_pd_sweep_ooo, "Performance-density sweep for OoO pods"),
        _spec("figure_3_5", chapter3.figure_3_5_pod_selection, "Crossbar pod sweep and the selected pod"),
        _spec("figure_3_6", chapter3.figure_3_6_pd_sweep_inorder, "Performance-density sweep for in-order pods"),
        _spec("table_3_2", chapter3.table_3_2_design_comparison, "Design comparison incl. Scale-Out Processors"),
        # version=2: rows gained the network_latency_avg column.
        _spec("figure_4_3", chapter4.figure_4_3_snoop_fraction, "Fraction of LLC accesses triggering snoops", version=2),
        _spec("figure_4_6", chapter4.figure_4_6_noc_performance, "System performance of mesh/fbfly/NOC-Out"),
        _spec("figure_4_7", chapter4.figure_4_7_noc_area, "NoC area breakdown per topology"),
        _spec("figure_4_8", chapter4.figure_4_8_area_normalized, "Performance under a fixed NoC area budget"),
        _spec("table_4_1", chapter4.table_4_1_parameters, "NOC-Out evaluation parameters"),
        _spec("table_5_1", chapter5.table_5_1_chip_characteristics, "Server chip characteristics"),
        _spec("table_5_2", chapter5.table_5_2_parameters, "TCO model parameters"),
        _spec("figure_5_1", chapter5.figures_5_1_5_2_performance_and_tco, "Datacenter performance vs conventional"),
        _spec("figure_5_2", chapter5.figures_5_1_5_2_performance_and_tco, "Datacenter TCO vs conventional"),
        _spec("figure_5_3", chapter5.figures_5_3_5_4_efficiency, "Performance/TCO across memory capacities"),
        _spec("figure_5_4", chapter5.figures_5_3_5_4_efficiency, "Performance/Watt across memory capacities"),
        _spec("figure_5_5", chapter5.figure_5_5_price_sensitivity, "Performance/TCO vs processor price"),
        _spec("table_6_1", chapter6.table_6_1_components, "Component budgets for the 3D study"),
        _spec("table_6_2", chapter6.table_6_2_specifications, "2D vs 3D Scale-Out Processor specifications"),
        _spec("figure_6_4", chapter6.figure_6_4_pd3d_ooo, "3D performance-density sweep, OoO pods"),
        _spec("figure_6_5", chapter6.figure_6_5_strategies_ooo, "Fixed-pod vs fixed-distance, OoO pods"),
        _spec("figure_6_6", chapter6.figure_6_6_pd3d_inorder, "3D performance-density sweep, in-order pods"),
        _spec("figure_6_7", chapter6.figure_6_7_strategies_inorder, "Fixed-pod vs fixed-distance, in-order pods"),
        _spec("service_latency_sweep", service.service_latency_sweep, "Load-latency curve (p50/p95/p99) for a service cluster", chapter=SERVICE_CHAPTER),
        _spec("service_policy_comparison", service.service_policy_comparison, "Load-balancing policies head-to-head at equal load", chapter=SERVICE_CHAPTER),
        _spec("service_cluster_sizing", service.service_cluster_sizing, "Servers and monthly TCO per design for a QPS target at a p99 SLA", chapter=SERVICE_CHAPTER),
        _spec("explore_pod_40nm", dse_studies.explore_pod_40nm, "40nm pod design space; the paper's chosen designs are frontier points", chapter=DSE_CHAPTER, kind="explore"),
        _spec("explore_scaling_20nm", dse_studies.explore_scaling_20nm, "Pod design space across 40nm/20nm; frontier shift under scaling", chapter=DSE_CHAPTER, kind="explore"),
        _spec("explore_sla_sizing", dse_studies.explore_sla_sizing, "SLA-constrained sizing: monthly TCO vs achieved p99 frontier", chapter=DSE_CHAPTER, kind="explore"),
        _spec("explore_pod_scale", dse_studies.explore_pod_scale, "~111k-candidate pod space, search strategies only (GA default)", chapter=DSE_CHAPTER, kind="explore"),
        _spec("fault_service_sweep", fault_studies.service_fault_sweep, "Availability/goodput/p99 of a service cluster vs server crash intensity", chapter=FAULTS_CHAPTER),
        _spec("fault_mttr_sensitivity", fault_studies.service_mttr_sweep, "Dependability vs repair time (MTTR) at fixed crash intensity", chapter=FAULTS_CHAPTER),
        _spec("fault_nk_sizing", fault_studies.service_nk_sizing, "N+k redundancy sizing: TCO and cluster availability vs tolerated failures", chapter=FAULTS_CHAPTER),
        _spec("fault_noc_links", fault_studies.noc_fault_sweep, "NoC latency and system IPC as links fail and traffic reroutes", chapter=FAULTS_CHAPTER),
        _spec("fleet_diurnal_day", fleet_studies.fleet_diurnal_day, "A compressed diurnal day across three datacenters: load, capacity, tail latency", chapter=FLEET_CHAPTER),
        _spec("fleet_autoscale_policies", fleet_studies.fleet_autoscale_policies, "Static vs reactive autoscaling on monthly TCO and SLA attainment", chapter=FLEET_CHAPTER),
        _spec("fleet_geo_routing", fleet_studies.fleet_geo_routing, "Geo-routing policies under skewed regional demand", chapter=FLEET_CHAPTER),
        _spec("fleet_class_priorities", fleet_studies.fleet_class_priorities, "Interactive vs batch tail latency under the prioritized request mix", chapter=FLEET_CHAPTER),
        _spec("node_family_table", technology_studies.node_family_table, "The derived 90nm-7nm node family: scaling factors and extrapolation flags", chapter=TECHNOLOGY_CHAPTER),
        _spec("node_design_scaling", technology_studies.node_design_scaling, "Conventional/Scale-Out/1Pod designs re-sized at every family node", chapter=TECHNOLOGY_CHAPTER),
        _spec("node_pod_selection", technology_studies.node_pod_selection, "PD-optimal pod per (node, core family) via the Chapter 3 methodology", chapter=TECHNOLOGY_CHAPTER),
        _spec("node_sram_scaling", technology_studies.node_sram_scaling, "LLC bank area/latency/energy across capacity and node (CACTI stand-in)", chapter=TECHNOLOGY_CHAPTER),
        _spec("explore_node_family", dse_studies.explore_node_family, "Pod design space across the whole node family; frontier shift per node", chapter=TECHNOLOGY_CHAPTER, kind="explore"),
    ]
)

#: Process-wide default cache; add a disk tier by setting ``REPRO_CACHE_DIR``.
DEFAULT_CACHE = ResultCache.from_env()


def run_experiment(
    experiment_id: str,
    use_cache: bool = True,
    cache: "ResultCache | None" = None,
    **kwargs,
) -> ExperimentResult:
    """Run one experiment by id (e.g. ``"table_3_2"``) through the runtime.

    Args:
        experiment_id: catalog id of the table or figure.
        use_cache: serve/store the result through the cache (default).
        cache: cache instance; defaults to the process-wide ``DEFAULT_CACHE``.
        **kwargs: parameter overrides forwarded to the experiment function.

    Returns:
        An :class:`ExperimentResult` whose ``data`` is exactly what the
        experiment function returned (identical rows whether computed or
        served from the cache).
    """
    from repro.obs.telemetry import telemetry_block
    from repro.obs.tracer import get_tracer

    spec = CATALOG.get(experiment_id)
    merged = spec.merged_kwargs(kwargs)
    key = result_key(spec.cache_token, merged)
    cache = cache if cache is not None else DEFAULT_CACHE

    tracer = get_tracer()
    counters_before = tracer.counters() if tracer.enabled else None
    start = perf_counter()
    cache_status = "disabled"
    compute_time_s = 0.0
    data = None
    with tracer.span(
        f"experiment.{experiment_id}", category="experiment"
    ) as experiment_span:
        if use_cache:
            with tracer.span("cache.fetch", category="cache") as fetch_span:
                data = cache.get(key, category="experiment")
                fetch_span.annotate(hit=data is not None)
            cache_status = "hit" if data is not None else "miss"
        if data is None:
            compute_start = perf_counter()
            data = spec.run(**kwargs)
            compute_time_s = perf_counter() - compute_start
            if use_cache:
                with tracer.span("cache.store", category="cache"):
                    cache.put(key, data, category="experiment")
        experiment_span.annotate(cache_status=cache_status)
    wall_time_s = perf_counter() - start

    provenance: "dict[str, object]" = {
        "function": spec.cache_token,
        "cache_key": key,
        "code_fingerprint": code_fingerprint(),
        "kwargs": {name: repr(value) for name, value in sorted(merged.items())},
    }
    # Node-parameterized runs pin which family nodes produced the data and
    # whether any scaling rule had to extrapolate to derive them, so a sweep
    # at 7nm is never mistaken for a paper-calibrated result.
    node_keys: "object | None" = merged.get("nodes")
    if node_keys is None and merged.get("node") is not None:
        node_keys = [merged["node"]]
    if node_keys is not None:
        from repro.technology.family import DEFAULT_FAMILY

        if isinstance(node_keys, (str, int)):
            node_keys = [node_keys]
        try:
            provenance["nodes"] = [
                {
                    "node": DEFAULT_FAMILY.node(key).name,
                    "calibrated": not DEFAULT_FAMILY.is_extrapolated(key),
                    "extrapolated_rules": DEFAULT_FAMILY.extrapolated_rules(key),
                }
                for key in node_keys  # type: ignore[union-attr]
            ]
        except (KeyError, TypeError):
            pass  # custom TechnologyNode objects outside the family
    # Faulted studies pin their fault load: the generator seed plus a SHA-256
    # digest of every schedule, so any faulted run is reproducible from its
    # envelope (and the ledger record built from it).
    if isinstance(data, dict):
        faults_info = data.get("faults")
        if isinstance(faults_info, dict) and "digest" in faults_info:
            provenance["fault_seed"] = faults_info.get("seed")
            provenance["fault_schedule_digest"] = faults_info["digest"]

    return ExperimentResult(
        experiment_id=experiment_id,
        data=data,
        provenance=provenance,
        wall_time_s=wall_time_s,
        cache_status=cache_status,
        compute_time_s=compute_time_s,
        telemetry=(
            telemetry_block(tracer, span=experiment_span, counters_before=counters_before)
            if tracer.enabled
            else None
        ),
    )
