"""The paper-expected-values registry: every claim the report grades.

Chapters 2-6 claims pin the reproduction to statements the Scale-Out
Processors paper makes about its figures and tables -- published speedups,
the selected pod configuration, qualitative orderings between designs.
Chapters 7-11 cover the repo's beyond-paper studies (service simulation,
design-space exploration, fault injection, fleet simulation, the
technology-node family); their claims attest internal consistency with the
paper's conclusions -- e.g. that the exploration's knee points are exactly
the paper's chosen Scale-Out designs (the check that used to live in
``explore_pod_40nm``'s ad-hoc ``paper_designs`` payload), that the
dependability studies respond to fault load in the physically required
direction (crashes cut availability, redundancy buys it back), or that the
derived node family keeps the paper's anchor node byte-exact while the
Pareto frontier shifts monotonically with technology.

This is the only place a result is checked against the paper.  Every claim is
stated at the catalog defaults, and every catalog experiment except
``explore_pod_scale`` carries at least one.

:func:`register_claims` wires the registry into a
:class:`~repro.runtime.SpecCatalog` so specs carry their claims;
:func:`claimed_catalog` returns the shared experiment catalog with every
registered claim attached (idempotently).
"""

from __future__ import annotations

from repro.report.claims import PaperClaim, Tolerance


def _value(claim_id, experiment_id, source, description, metric, expected,
           rel=None, abs=None, **kwargs) -> PaperClaim:
    """Shorthand for a numeric expected-value claim."""
    return PaperClaim(
        claim_id=claim_id, experiment_id=experiment_id, source=source,
        description=description, metric=metric, kind="value", expected=expected,
        tolerance=Tolerance(rel=rel, abs=abs), **kwargs,
    )


def _relation(claim_id, experiment_id, source, description, metric, op,
              expected=None, rhs_metric=None, rel=None, **kwargs) -> PaperClaim:
    """Shorthand for a qualitative relation claim."""
    return PaperClaim(
        claim_id=claim_id, experiment_id=experiment_id, source=source,
        description=description, metric=metric, kind="relation", op=op,
        expected=expected, rhs_metric=rhs_metric,
        tolerance=Tolerance(rel=rel), **kwargs,
    )


#: Every registered claim, in report order (grouped by chapter).
PAPER_CLAIMS: "tuple[PaperClaim, ...]" = (
    # ----------------------------------------------------------- chapter 2
    _value(
        "ch2-websearch-ipc", "figure_2_1", "Figure 2.1",
        "Web Search reaches an application IPC of ~1.56 on the aggressive OoO core",
        "rows[workload=Web Search].application_ipc", 1.56, rel=0.05,
    ),
    _relation(
        "ch2-ipc-below-peak", "figure_2_1", "Figure 2.1",
        "No scale-out workload comes close to the 4-wide core's peak IPC",
        "rows.application_ipc:max", "<=", expected=2.0,
    ),
    _relation(
        "ch2-ipc-floor", "figure_2_1", "Figure 2.1",
        "Every scale-out workload sustains an application IPC above 0.4",
        "rows.application_ipc:min", ">", expected=0.4,
    ),
    _relation(
        "ch2-llc-saturates", "figure_2_2", "Figure 2.2",
        "Growing the LLC beyond 8 MB stops helping Data Serving",
        "rows[workload=Data Serving].16MB", "<",
        rhs_metric="rows[workload=Data Serving].8MB",
    ),
    _relation(
        "ch2-llc-8mb-never-hurts", "figure_2_2", "Figure 2.2",
        "No workload runs slower with an 8 MB LLC than with the 1 MB baseline",
        "rows.8MB:min", ">=", rhs_metric="rows.1MB:max",
    ),
    _relation(
        "ch2-core-scaling-sublinear", "figure_2_3", "Figure 2.3",
        "At 64 cores the mesh-based chip falls short of ideal aggregate scaling",
        "rows[cores=64].mesh_aggregate", "<",
        rhs_metric="rows[cores=64].ideal_aggregate",
    ),
    _relation(
        "ch2-mesh-per-core-256", "figure_2_3", "Figure 2.3",
        "At 256 cores each core of the mesh-based chip runs slower than on the ideal interconnect",
        "rows[cores=256].mesh_per_core", "<",
        rhs_metric="rows[cores=256].ideal_per_core",
    ),
    _relation(
        "ch2-components-listed", "table_2_1", "Table 2.1",
        "The component table lists its six 40 nm building blocks",
        "rows.component:count", "==", expected=6,
    ),
    _value(
        "ch2-ooo-core-area", "table_2_1", "Table 2.1",
        "An out-of-order core occupies 4.5 mm2 at 40 nm",
        "rows[component=ooo_core].area_mm2", 4.5,
    ),
    _value(
        "ch2-inorder-core-power", "table_2_1", "Table 2.1",
        "An in-order core draws 0.48 W at 40 nm",
        "rows[component=inorder_core].power_w", 0.48,
    ),
    _value(
        "ch2-conventional-core-area", "table_2_1", "Table 2.1",
        "A conventional core occupies 25 mm2 at 40 nm, over five OoO cores' worth",
        "rows[component=conventional_core].area_mm2", 25.0,
    ),
    _relation(
        "ch2-conventional-least-dense-40nm", "table_2_3", "Table 2.3",
        "The conventional design has the lowest performance density at 40 nm",
        "rows[design=Conventional].PD", "<=", rhs_metric="rows.PD:min",
    ),
    _value(
        "ch2-ideal-inorder-pd", "table_2_3", "Table 2.3",
        "The ideal in-order organization tops the 40 nm designs at PD ~0.193",
        "rows[design=Ideal (In-order)].PD", 0.193, rel=0.03,
    ),
    _relation(
        "ch2-conventional-least-dense-20nm", "table_2_4", "Table 2.4",
        "The conventional design still has the lowest performance density at 20 nm",
        "rows[design=Conventional].PD", "<=", rhs_metric="rows.PD:min",
    ),
    _relation(
        "ch2-ideal-inorder-tops-20nm", "table_2_4", "Table 2.4",
        "The ideal in-order organization tops the 20 nm designs on performance density",
        "rows[design=Ideal (In-order)].PD", ">=", rhs_metric="rows.PD:max",
    ),
    # ----------------------------------------------------------- chapter 3
    _value(
        "ch3-model-mae", "figure_3_3", "Figure 3.3",
        "Mean absolute model-vs-simulation error across all design points",
        "rows[workload=MEAN].relative_error", 0.26, abs=0.05,
    ),
    _relation(
        "ch3-model-worst", "figure_3_3", "Figure 3.3",
        "Worst-case model error stays bounded over the validated design points",
        "rows.relative_error:max_abs", "<=", expected=0.40,
    ),
    _relation(
        "ch3-ooo-pd-floor", "figure_3_4", "Figure 3.4",
        "The densest OoO pod in the sweep exceeds a performance density of 0.1",
        "rows.performance_density:max", ">", expected=0.1,
    ),
    _relation(
        "ch3-ooo-crossbar-below-ideal", "figure_3_4", "Figure 3.4",
        "No OoO crossbar pod reaches the density of the best ideal-interconnect pod",
        "rows[interconnect=crossbar].performance_density:max", "<",
        rhs_metric="rows[interconnect=ideal].performance_density:max",
    ),
    _relation(
        "ch3-ooo-mesh-below-crossbar", "figure_3_4", "Figure 3.4",
        "The mesh's multi-hop latency keeps its best OoO pod below the best crossbar pod",
        "rows[interconnect=mesh].performance_density:max", "<",
        rhs_metric="rows[interconnect=crossbar].performance_density:max",
    ),
    _relation(
        "ch3-ooo-crossbar-falls-past-peak", "figure_3_4", "Figure 3.4",
        "Past its peak a crossbar pod loses density: 256 cores fall below 32 (4 MB LLC)",
        "rows[interconnect=crossbar,llc_mb=4.0,cores=256].performance_density", "<",
        rhs_metric="rows[interconnect=crossbar,llc_mb=4.0,cores=32].performance_density",
    ),
    _relation(
        "ch3-pod-cores", "figure_3_5", "Figure 3.5",
        "The performance-density sweep selects a 16-core pod",
        "data.selected_cores", "==", expected=16,
    ),
    _value(
        "ch3-pod-pd", "figure_3_5", "Figure 3.5",
        "Performance density of the selected crossbar pod",
        "data.selected_pd", 0.1488, rel=0.02,
    ),
    _relation(
        "ch3-inorder-pd-floor", "figure_3_6", "Figure 3.6",
        "The densest in-order pod in the sweep exceeds a performance density of 0.15",
        "rows.performance_density:max", ">", expected=0.15,
    ),
    _relation(
        "ch3-inorder-crossbar-peak-32", "figure_3_6", "Figure 3.6",
        "The densest in-order crossbar pod has 32 cores, twice the OoO pod's 16",
        "rows[interconnect=crossbar,cores=32].performance_density:max", ">=",
        rhs_metric="rows[interconnect=crossbar].performance_density:max",
    ),
    _relation(
        "ch3-inorder-mesh-below-crossbar", "figure_3_6", "Figure 3.6",
        "The mesh's best in-order pod stays below the best crossbar pod",
        "rows[interconnect=mesh].performance_density:max", "<",
        rhs_metric="rows[interconnect=crossbar].performance_density:max",
    ),
    _relation(
        "ch3-scaleout-beats-tiled", "table_3_2", "Table 3.2",
        "Scale-Out (In-order) outperforms the tiled in-order design on PD",
        "rows[design=Scale-Out (In-order)].PD", ">",
        rhs_metric="rows[design=Tiled (In-order)].PD",
    ),
    _value(
        "ch3-scaleout-ooo-pd", "table_3_2", "Table 3.2",
        "Scale-Out (OoO) lands within ~6% of the ideal OoO performance density",
        "rows[design=Scale-Out (OoO)].PD", 0.103, rel=0.03,
    ),
    # ----------------------------------------------------------- chapter 4
    _relation(
        "ch4-fbfly-beats-mesh", "figure_4_6", "Figure 4.6",
        "The flattened butterfly outperforms the mesh at 64 cores",
        "rows[topology=fbfly].geomean", ">",
        rhs_metric="rows[topology=mesh].geomean",
    ),
    _value(
        "ch4-fbfly-speedup", "figure_4_6", "Figure 4.6",
        "Geomean system speedup of the flattened butterfly over the mesh",
        "rows[topology=fbfly].geomean", 1.246, rel=0.02,
    ),
    _value(
        "ch4-nocout-speedup", "figure_4_6", "Figure 4.6",
        "Geomean system speedup of NOC-Out over the mesh",
        "rows[topology=nocout].geomean", 1.178, rel=0.02,
    ),
    _relation(
        "ch4-nocout-cheapest", "figure_4_7", "Figure 4.7",
        "NOC-Out needs less NoC area than even the mesh",
        "rows[topology=nocout].total_mm2", "<",
        rhs_metric="rows[topology=mesh].total_mm2",
    ),
    _relation(
        "ch4-fbfly-costliest", "figure_4_7", "Figure 4.7",
        "The flattened butterfly needs more NoC area than the mesh",
        "rows[topology=mesh].total_mm2", "<",
        rhs_metric="rows[topology=fbfly].total_mm2",
    ),
    _relation(
        "ch4-area-normalized-nocout", "figure_4_8", "Figure 4.8",
        "Under an equal-area budget NOC-Out beats the flattened butterfly",
        "rows[topology=nocout].geomean", ">",
        rhs_metric="rows[topology=fbfly].geomean",
    ),
    _relation(
        "ch4-area-normalized-beats-mesh", "figure_4_8", "Figure 4.8",
        "Under an equal-area budget NOC-Out also outperforms the mesh",
        "rows[topology=nocout].geomean", ">", expected=1.0,
    ),
    _relation(
        "ch4-snoops-rare", "figure_4_3", "Figure 4.3",
        "On average snoops are triggered by under 2% of LLC accesses",
        "rows[workload=MEAN].snoop_fraction_percent", "<=", expected=2.0,
    ),
    _relation(
        "ch4-snoops-non-negative", "figure_4_3", "Figure 4.3",
        "No workload reports a negative snoop fraction",
        "rows.snoop_fraction_percent:min", ">=", expected=0.0,
    ),
    _relation(
        "ch4-params-cores", "table_4_1", "Table 4.1",
        "The NOC-Out evaluation models a 64-core chip",
        "rows[parameter=cores].value", "==", expected=64,
    ),
    _relation(
        "ch4-params-llc", "table_4_1", "Table 4.1",
        "The NOC-Out evaluation models an 8 MB LLC",
        "rows[parameter=llc_mb].value", "==", expected=8.0,
    ),
    _relation(
        "ch4-params-node", "table_4_1", "Table 4.1",
        "The NOC-Out evaluation is set in 32 nm technology",
        "rows[parameter=technology].value", "==", expected="32nm",
    ),
    # ----------------------------------------------------------- chapter 5
    _relation(
        "ch5-chips-listed", "table_5_1", "Table 5.1",
        "The chip table characterizes all seven server-chip designs",
        "rows.design:count", "==", expected=7,
    ),
    _relation(
        "ch5-scaleout-inorder-cores", "table_5_1", "Table 5.1",
        "The Scale-Out (In-order) chip carries 96 cores (three 32-core pods)",
        "rows[design=Scale-Out (In-order)].cores", "==", expected=96,
    ),
    _relation(
        "ch5-scaleout-chip-cheaper", "table_5_1", "Table 5.1",
        "The Scale-Out (In-order) chip sells for less than the conventional chip",
        "rows[design=Scale-Out (In-order)].price_usd", "<",
        rhs_metric="rows[design=Conventional].price_usd",
    ),
    _relation(
        "ch5-tco-params-listed", "table_5_2", "Table 5.2",
        "The TCO model lists at least eight cost parameters",
        "rows.parameter:count", ">=", expected=8,
    ),
    _value(
        "ch5-tco-pue", "table_5_2", "Table 5.2",
        "The datacenter runs at a PUE of 1.3",
        "rows[parameter=pue].value", 1.3,
    ),
    _value(
        "ch5-tco-electricity", "table_5_2", "Table 5.2",
        "Electricity costs $0.07 per kWh",
        "rows[parameter=electricity_cost_per_kwh].value", 0.07,
    ),
    _value(
        "ch5-scaleout-ooo-perf", "figure_5_1", "Figure 5.1",
        "Datacenter performance of Scale-Out (OoO) vs the conventional baseline",
        "rows[design=Scale-Out (OoO)].normalized_performance", 5.25, rel=0.03,
    ),
    _relation(
        "ch5-scaleout-inorder-perf", "figure_5_1", "Figure 5.1",
        "Scale-Out (In-order) more than doubles the conventional datacenter's performance",
        "rows[design=Scale-Out (In-order)].normalized_performance", ">", expected=2.0,
    ),
    _relation(
        "ch5-scaleout-tco", "figure_5_2", "Figure 5.2",
        "Scale-Out (In-order) lowers datacenter TCO below the conventional baseline",
        "rows[design=Scale-Out (In-order)].normalized_tco", "<", expected=1.0,
    ),
    _relation(
        "ch5-tco-band-low", "figure_5_2", "Figure 5.2",
        "No design cuts datacenter TCO to half the conventional baseline or less",
        "rows.normalized_tco:min", ">", expected=0.5,
    ),
    _relation(
        "ch5-tco-band-high", "figure_5_2", "Figure 5.2",
        "No design raises datacenter TCO to 1.5x the conventional baseline or more",
        "rows.normalized_tco:max", "<", expected=1.5,
    ),
    _relation(
        "ch5-inorder-best-efficiency", "figure_5_3", "Figure 5.3",
        "At 32 GB, Scale-Out (In-order) has the best performance per TCO dollar",
        "rows[design=Scale-Out (In-order),memory_gb=32].performance_per_tco", ">=",
        rhs_metric="rows[memory_gb=32].performance_per_tco:max",
    ),
    _relation(
        "ch5-perf-per-tco-positive", "figure_5_3", "Figure 5.3",
        "Every design delivers positive performance per TCO dollar at every memory size",
        "rows.performance_per_tco:min", ">", expected=0.0,
    ),
    _relation(
        "ch5-perf-per-watt-positive", "figure_5_4", "Figure 5.4",
        "Every design delivers positive performance per Watt at every memory size",
        "rows.performance_per_watt:min", ">", expected=0.0,
    ),
    _relation(
        "ch5-inorder-best-perf-per-watt", "figure_5_4", "Figure 5.4",
        "At 32 GB, Scale-Out (In-order) has the best performance per Watt",
        "rows[design=Scale-Out (In-order),memory_gb=32].performance_per_watt", ">=",
        rhs_metric="rows[memory_gb=32].performance_per_watt:max",
    ),
    _relation(
        "ch5-scaleout-watt-beats-conventional", "figure_5_4", "Figure 5.4",
        "Scale-Out (OoO) beats the conventional design on performance per Watt at every memory size",
        "rows[design=Scale-Out (OoO)].performance_per_watt:min", ">",
        rhs_metric="rows[design=Conventional].performance_per_watt:max",
    ),
    _relation(
        "ch5-price-robust", "figure_5_5", "Figure 5.5",
        "Scale-Out (In-order) beats the conventional design at every processor price",
        "rows[design=Scale-Out (In-order)].performance_per_tco:min", ">",
        rhs_metric="rows[design=Conventional].performance_per_tco:max",
    ),
    _relation(
        "ch5-prices-positive", "figure_5_5", "Figure 5.5",
        "Every design has a positive processor price at every production volume",
        "rows.price_usd:min", ">", expected=0.0,
    ),
    # ----------------------------------------------------------- chapter 6
    _relation(
        "ch6-components-listed", "table_6_1", "Table 6.1",
        "The 3D study's component table lists at least four building blocks",
        "rows.component:count", ">=", expected=4,
    ),
    _value(
        "ch6-inorder-core-area", "table_6_1", "Table 6.1",
        "The 3D study keeps the 1.3 mm2 in-order core of the 2D designs",
        "rows[component=inorder_core].area_mm2", 1.3,
    ),
    _relation(
        "ch6-3d-pd-positive", "table_6_2", "Table 6.2",
        "Every 2D and 3D configuration has a positive performance density",
        "rows.performance_density:min", ">", expected=0.0,
    ),
    _relation(
        "ch6-3d-gain-ooo", "table_6_2", "Table 6.2",
        "Four-die fixed-distance stacking raises OoO performance density over 2D",
        "rows[configuration=Fixed-Distance,core_type=ooo,dies=4].performance_density",
        ">", rhs_metric="rows[configuration=2D Pod,core_type=ooo].performance_density",
    ),
    _relation(
        "ch6-fixed-distance-wins", "figure_6_5", "Figure 6.5",
        "At four dies the fixed-distance strategy beats fixed-pod scaling",
        "rows[strategy=fixed-distance,dies=4].performance_density", ">",
        rhs_metric="rows[strategy=fixed-pod,dies=4].performance_density",
    ),
    _relation(
        "ch6-ooo-3d-pd-floor", "figure_6_4", "Figure 6.4",
        "The densest stacked OoO pod exceeds a performance density of 0.1",
        "rows.performance_density:max", ">", expected=0.1,
    ),
    _relation(
        "ch6-ooo-stacking-raises-pd", "figure_6_4", "Figure 6.4",
        "The best four-die OoO pod is denser than the best single-die pod",
        "rows[dies=4].performance_density:max", ">",
        rhs_metric="rows[dies=1].performance_density:max",
    ),
    _relation(
        "ch6-inorder-3d-pd-floor", "figure_6_6", "Figure 6.6",
        "The densest stacked in-order pod exceeds a performance density of 0.15",
        "rows.performance_density:max", ">", expected=0.15,
    ),
    _relation(
        "ch6-inorder-stacking-raises-pd", "figure_6_6", "Figure 6.6",
        "The best four-die in-order pod is denser than the best single-die pod",
        "rows[dies=4].performance_density:max", ">",
        rhs_metric="rows[dies=1].performance_density:max",
    ),
    _relation(
        "ch6-inorder-fixed-distance-wins", "figure_6_7", "Figure 6.7",
        "At three dies the fixed-distance strategy beats fixed-pod scaling for in-order cores",
        "rows[strategy=fixed-distance,dies=3].performance_density", ">",
        rhs_metric="rows[strategy=fixed-pod,dies=3].performance_density",
    ),
    _value(
        "ch6-3d-pd-inorder", "table_6_2", "Table 6.2",
        "Performance density of the three-die fixed-distance in-order stack",
        "rows[configuration=Fixed-Distance,core_type=inorder,dies=3].performance_density",
        0.311, rel=0.02,
    ),
    # ------------------------------------------- chapter 7 (beyond paper)
    _relation(
        "ch7-latency-grows-with-load", "service_latency_sweep", "Study: latency sweep",
        "Tail latency rises as the offered load saturates the cluster",
        "rows[utilization=1.1].p99_ms", ">", rhs_metric="rows[utilization=0.2].p99_ms",
    ),
    _relation(
        "ch7-p99-nondecreasing-0.8", "service_latency_sweep", "Study: latency sweep",
        "p99 does not fall as the load rises from 0.5 to 0.8 of saturation",
        "rows[utilization=0.8].p99_ms", ">=", rhs_metric="rows[utilization=0.5].p99_ms",
    ),
    _relation(
        "ch7-p99-nondecreasing-0.95", "service_latency_sweep", "Study: latency sweep",
        "p99 does not fall as the load rises from 0.8 to 0.95 of saturation",
        "rows[utilization=0.95].p99_ms", ">=", rhs_metric="rows[utilization=0.8].p99_ms",
    ),
    _relation(
        "ch7-p99-nondecreasing-1.1", "service_latency_sweep", "Study: latency sweep",
        "p99 does not fall as the load rises from 0.95 to 1.1 of saturation",
        "rows[utilization=1.1].p99_ms", ">=", rhs_metric="rows[utilization=0.95].p99_ms",
    ),
    _relation(
        "ch7-erlang-agreement", "service_latency_sweep", "Study: latency sweep",
        "At low load the measured p99 agrees with the Erlang M/M/k prediction",
        "rows[utilization=0.2].p99_ms", "==",
        rhs_metric="rows[utilization=0.2].mmk_p99_ms", rel=0.05,
    ),
    _relation(
        "ch7-jsq-tail", "service_policy_comparison", "Study: policy comparison",
        "Join-shortest-queue does not lose to random load balancing on p99",
        "rows[policy=jsq].p99_ms", "<=", rhs_metric="rows[policy=random].p99_ms",
    ),
    _relation(
        "ch7-scaleout-fewer-servers", "service_cluster_sizing", "Study: cluster sizing",
        "Scale-Out (OoO) serves the QPS target with far fewer servers",
        "rows[design=Scale-Out (OoO)].servers", "<",
        rhs_metric="rows[design=Conventional].servers",
    ),
    _relation(
        "ch7-scaleout-cheaper", "service_cluster_sizing", "Study: cluster sizing",
        "Scale-Out (OoO) meets the SLA at a lower monthly TCO",
        "rows[design=Scale-Out (OoO)].monthly_tco_usd", "<",
        rhs_metric="rows[design=Conventional].monthly_tco_usd",
    ),
    _relation(
        "ch7-sizing-meets-sla", "service_cluster_sizing", "Study: cluster sizing",
        "Every sized cluster keeps its p99 within the SLA",
        "rows.p99_ms:max", "<=", rhs_metric="rows.sla_p99_ms:min",
    ),
    # ------------------------------------------- chapter 8 (beyond paper)
    _relation(
        "ch8-paper-ooo-on-frontier", "explore_pod_40nm", "Section 2.3 / exploration",
        "The paper's 2x16-core/4 MB OoO design is on its family's Pareto frontier",
        "rows[core_type=ooo,cores_per_pod=16,llc_per_pod_mb=4.0,pods_per_chip=2].on_frontier",
        "==", expected=True,
    ),
    _relation(
        "ch8-paper-inorder-on-frontier", "explore_pod_40nm", "Section 2.3 / exploration",
        "The paper's 3x32-core/2 MB in-order design is on its family's frontier",
        "rows[core_type=inorder,cores_per_pod=32,llc_per_pod_mb=2.0,pods_per_chip=3].on_frontier",
        "==", expected=True,
    ),
    _relation(
        "ch8-knee-ooo", "explore_pod_40nm", "Section 2.3 / exploration",
        "The OoO knee point is exactly the paper's chosen Scale-Out (OoO) chip",
        "data.knees.ooo.candidate", "==", expected="ooo/16/4.0/crossbar/2/40nm",
    ),
    _relation(
        "ch8-knee-inorder", "explore_pod_40nm", "Section 2.3 / exploration",
        "The in-order knee point is exactly the paper's chosen Scale-Out (In-order) chip",
        "data.knees.inorder.candidate", "==", expected="inorder/32/2.0/crossbar/3/40nm",
    ),
    _relation(
        "ch8-scaling-raises-pd", "explore_scaling_20nm", "Section 2.4.1 / exploration",
        "Moving from 40 nm to 20 nm raises the OoO knee's performance density",
        'data.knees["20nm / ooo"].performance_density', ">",
        rhs_metric='data.knees["40nm / ooo"].performance_density',
    ),
    _relation(
        "ch8-sla-frontier-feasible", "explore_sla_sizing", "Study: SLA sizing",
        "Every frontier deployment meets the p99 service-level objective",
        "rows[on_frontier=True].p99_ms:max", "<=", rhs_metric="data.sla_p99_ms",
    ),
    # ------------------------------------------- chapter 9 (beyond paper)
    _relation(
        "ch9-zero-fault-full-availability", "fault_service_sweep", "Study: fault sweep",
        "The zero-intensity point runs the un-faulted engine at full availability",
        "rows[crash_intensity=0.0].availability", "==", expected=1.0,
    ),
    _relation(
        "ch9-crashes-cut-availability", "fault_service_sweep", "Study: fault sweep",
        "Raising the crash intensity lowers cluster availability",
        "rows[crash_intensity=4.0].availability", "<",
        rhs_metric="rows[crash_intensity=0.0].availability",
    ),
    _relation(
        "ch9-crashes-cut-goodput", "fault_service_sweep", "Study: fault sweep",
        "Crashes lose queued and in-flight requests, cutting the goodput fraction",
        "rows[crash_intensity=4.0].goodput_fraction", "<",
        rhs_metric="rows[crash_intensity=0.0].goodput_fraction",
    ),
    _relation(
        "ch9-mttr-hurts-availability", "fault_mttr_sensitivity", "Study: MTTR sensitivity",
        "Slower repairs accumulate more downtime per crash, lowering availability",
        "rows[mttr_fraction=0.4].availability", "<",
        rhs_metric="rows[mttr_fraction=0.02].availability",
    ),
    _relation(
        "ch9-mttr-slows-recovery", "fault_mttr_sensitivity", "Study: MTTR sensitivity",
        "Mean time to recover grows with the repair time",
        "rows[mttr_fraction=0.4].mean_time_to_recover_ms", ">",
        rhs_metric="rows[mttr_fraction=0.02].mean_time_to_recover_ms",
    ),
    _relation(
        "ch9-nk-zero-reduces", "fault_nk_sizing", "Study: N+k sizing",
        "k = 0 reduces N+k sizing to the base SLA sizing answer exactly",
        "rows[design=Scale-Out (OoO),k=0].servers", "==",
        rhs_metric="rows[design=Scale-Out (OoO),k=0].base_servers",
    ),
    _relation(
        "ch9-nk-tco-monotone", "fault_nk_sizing", "Study: N+k sizing",
        "Each tolerated failure adds a server, so monthly TCO is monotone in k",
        "rows[design=Scale-Out (OoO),k=4].monthly_tco_usd", ">=",
        rhs_metric="rows[design=Scale-Out (OoO),k=0].monthly_tco_usd",
    ),
    _relation(
        "ch9-nk-availability-gain", "fault_nk_sizing", "Study: N+k sizing",
        "Redundancy buys availability: k = 2 survives outages k = 0 cannot",
        "rows[design=Scale-Out (OoO),k=2].cluster_availability", ">",
        rhs_metric="rows[design=Scale-Out (OoO),k=0].cluster_availability",
    ),
    _relation(
        "ch9-link-failures-raise-latency", "fault_noc_links", "Study: NoC link faults",
        "Routing around eight failed mesh links lengthens request latency",
        "rows[failed_links=8].request_latency_cycles", ">",
        rhs_metric="rows[failed_links=0].request_latency_cycles",
    ),
    _relation(
        "ch9-link-failures-cut-ipc", "fault_noc_links", "Study: NoC link faults",
        "The longer faulted-network round trips depress system IPC",
        "rows[failed_links=8].system_ipc", "<",
        rhs_metric="rows[failed_links=0].system_ipc",
    ),
    # ------------------------------------------ chapter 10 (beyond paper)
    _value(
        "ch10-diurnal-peak-multiplier", "fleet_diurnal_day", "Study: diurnal day",
        "The diurnal shape peaks at 1.75x the day's mean rate (hour 14)",
        "rows[epoch=14,datacenter=fleet].multiplier", 1.75, rel=0.01,
    ),
    _relation(
        "ch10-diurnal-peak-tail", "fleet_diurnal_day", "Study: diurnal day",
        "Peak-hour queueing stretches fleet p99 well beyond the trough hour's",
        "rows[epoch=14,datacenter=fleet].p99_ms", ">",
        rhs_metric="rows[epoch=2,datacenter=fleet].p99_ms",
    ),
    _relation(
        "ch10-static-never-scales", "fleet_autoscale_policies", "Study: autoscaling",
        "The statically provisioned baseline records zero scaling events",
        "rows[autoscale=static].scale_events", "==", expected=0,
    ),
    _relation(
        "ch10-autoscale-cuts-tco", "fleet_autoscale_policies", "Study: autoscaling",
        "Target-utilization autoscaling sheds off-peak capacity and cuts monthly TCO",
        "rows[autoscale=target_utilization].monthly_cost_usd", "<",
        rhs_metric="rows[autoscale=static].monthly_cost_usd",
    ),
    _relation(
        "ch10-queue-depth-cuts-tco", "fleet_autoscale_policies", "Study: autoscaling",
        "Queue-depth autoscaling also undercuts static provisioning on TCO",
        "rows[autoscale=queue_depth].monthly_cost_usd", "<",
        rhs_metric="rows[autoscale=static].monthly_cost_usd",
    ),
    _relation(
        "ch10-nearest-min-network", "fleet_geo_routing", "Study: geo-routing",
        "Nearest routing minimizes mean network latency across the policies",
        "rows[routing=nearest].network_ms_mean", "<=",
        rhs_metric="rows.network_ms_mean:min",
    ),
    _relation(
        "ch10-spillover-sheds-hotspot", "fleet_geo_routing", "Study: geo-routing",
        "Under skewed demand, spillover sheds the hot site's load that nearest piles on",
        "rows[routing=spillover].max_utilization", "<",
        rhs_metric="rows[routing=nearest].max_utilization",
    ),
    _relation(
        "ch10-spillover-tail-win", "fleet_geo_routing", "Study: geo-routing",
        "Trading network hops for queueing headroom cuts the fleet p99 under skew",
        "rows[routing=spillover].p99_ms", "<",
        rhs_metric="rows[routing=nearest].p99_ms",
    ),
    _relation(
        "ch10-interactive-beats-batch", "fleet_class_priorities", "Study: request classes",
        "The prioritized interactive class holds a lower p99 than the 4x-heavier batch class",
        "rows[request_class=interactive].p99_ms", "<",
        rhs_metric="rows[request_class=batch].p99_ms",
    ),
    _relation(
        "ch10-both-classes-within-sla", "fleet_class_priorities", "Study: request classes",
        "Both request classes keep at least 95% of requests inside their own SLA",
        "rows.sla_attainment:min", ">=", expected=0.95,
    ),
    # ------------------------------------------ chapter 11 (beyond paper)
    _relation(
        "ch11-anchor-area-unity", "node_family_table", "Study: node family",
        "The derived 40 nm node is the paper's anchor: logic area scale exactly 1",
        "rows[node=40nm].logic_area_scale", "==", expected=1.0,
    ),
    _relation(
        "ch11-anchor-power-unity", "node_family_table", "Study: node family",
        "The derived 40 nm node is the paper's anchor: logic power scale exactly 1",
        "rows[node=40nm].logic_power_scale", "==", expected=1.0,
    ),
    _relation(
        "ch11-dennard-vdd-stalls", "node_family_table", "Study: node family",
        "Dennard breakdown: Vdd sits flat at 0.9 V from 40 nm down through 28 nm",
        "rows[node=28nm].vdd", "==", rhs_metric="rows[node=40nm].vdd",
    ),
    _relation(
        "ch11-analog-never-shrinks-max", "node_family_table", "Study: node family",
        "Analog/PHY area does not scale with feature size at any family node",
        "rows.analog_area_scale:max", "==", expected=1.0,
    ),
    _relation(
        "ch11-analog-never-shrinks-min", "node_family_table", "Study: node family",
        "Analog/PHY area does not scale with feature size at any family node",
        "rows.analog_area_scale:min", "==", expected=1.0,
    ),
    _relation(
        "ch11-calibrated-band", "node_family_table", "Study: node family",
        "Exactly the four 40-20 nm nodes sit inside the calibrated scaling band",
        "rows[calibrated=True].node:count", "==", expected=4,
    ),
    _relation(
        "ch11-extrapolation-flagged", "node_family_table", "Study: node family",
        "Nodes outside the calibrated band carry an explicit extrapolation flag",
        "rows[node=7nm].calibrated", "==", expected=False,
    ),
    _relation(
        "ch11-conventional-dies-at-90nm", "node_design_scaling", "Study: design scaling",
        "At 90 nm no conventional-core chip fits the fixed socket at any size",
        "rows[node=90nm,design=Conventional].feasible", "==", expected=False,
    ),
    _relation(
        "ch11-tco-improves-with-node", "node_design_scaling", "Study: design scaling",
        "Shrinking 40 nm to 20 nm raises Scale-Out (OoO) performance per TCO dollar",
        "rows[node=20nm,design=Scale-Out (OoO)].performance_per_tco", ">",
        rhs_metric="rows[node=40nm,design=Scale-Out (OoO)].performance_per_tco",
    ),
    _value(
        "ch11-pod-selection-consistent", "node_pod_selection", "Figure 3.5 / node sweep",
        "The per-node methodology reproduces Figure 3.5's 40 nm OoO pod density",
        "rows[node=40nm,core_type=ooo].performance_density", 0.1488, rel=0.02,
    ),
    _relation(
        "ch11-sram-density-scales", "node_sram_scaling", "Study: SRAM scaling",
        "A 16 MB LLC bank at 7 nm occupies a small fraction of its 90 nm area",
        "rows[node=7nm,capacity_mb=16.0].area_mm2", "<",
        rhs_metric="rows[node=90nm,capacity_mb=16.0].area_mm2",
    ),
    _relation(
        "ch11-family-knee-matches-paper", "explore_node_family", "Section 2.3 / family exploration",
        "The family-wide exploration's 40 nm OoO knee is still the paper's chip",
        'data.knees["40nm / ooo"].candidate', "==",
        expected="ooo/16/4.0/crossbar/2/40nm",
    ),
    _relation(
        "ch11-frontier-shift-20nm", "explore_node_family", "Section 2.4.1 / family exploration",
        "The OoO knee's performance density keeps rising from 40 nm to 20 nm",
        'data.knees["20nm / ooo"].performance_density', ">",
        rhs_metric='data.knees["40nm / ooo"].performance_density',
    ),
    _relation(
        "ch11-frontier-shift-7nm", "explore_node_family", "Study: family exploration",
        "The frontier keeps shifting up past the paper: 7 nm beats the 20 nm knee",
        'data.knees["7nm / ooo"].performance_density', ">",
        rhs_metric='data.knees["20nm / ooo"].performance_density',
    ),
    _relation(
        "ch11-90nm-trails-anchor", "explore_node_family", "Study: family exploration",
        "Walking the family backwards, the 90 nm knee trails the 40 nm anchor",
        'data.knees["90nm / ooo"].performance_density', "<",
        rhs_metric='data.knees["40nm / ooo"].performance_density',
    ),
)


def register_claims(catalog) -> None:
    """Attach :data:`PAPER_CLAIMS` to ``catalog`` (idempotent).

    Args:
        catalog: a :class:`~repro.runtime.SpecCatalog`; claims already
            attached (by id) are skipped so repeated registration is safe.
    """
    known = {claim.claim_id for claim in catalog.claims()}
    fresh = [claim for claim in PAPER_CLAIMS if claim.claim_id not in known]
    if fresh:
        catalog.attach_claims(fresh)


def claimed_catalog():
    """The shared experiment catalog with every registered claim attached."""
    from repro.experiments.registry import CATALOG

    register_claims(CATALOG)
    return CATALOG
