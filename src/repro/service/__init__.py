"""Datacenter service simulation: queueing, tail latency, SLA-driven sizing.

This package turns the repo's chip-level metrics into service-level ones.  A
cluster simulator (:mod:`~repro.service.cluster`) pushes an open-loop request
stream (:mod:`~repro.service.arrivals`) through a load-balancing policy onto
per-server FCFS G/G/k stations whose service rates are calibrated from the
analytic performance model (:mod:`~repro.service.calibration`).  On top of the
simulator, an Erlang-C M/M/k layer (:mod:`~repro.service.sizing`) sizes and
costs the minimum cluster that serves a QPS target within a p99 SLA, using the
existing :mod:`repro.tco` models for rack packing and monthly cost.
"""

from repro.service.arrivals import (
    ARRIVAL_PROCESSES,
    MmppArrivals,
    PoissonArrivals,
    make_arrivals,
)
from repro.service.calibration import ServiceCapacity, calibrate_chip
from repro.service.cluster import (
    BALANCER_POLICIES,
    ClusterConfig,
    ClusterResult,
    ClusterSimulation,
    simulate_cluster,
)
from repro.service.latency import LatencyStats
from repro.service.servicetime import (
    SERVICE_DISTRIBUTIONS,
    DeterministicService,
    ExponentialService,
    LogNormalService,
    make_service_time,
)
from repro.service.sizing import (
    ClusterSizer,
    MmkQueue,
    SizingResult,
    SlaInfeasibleError,
    erlang_b,
    erlang_c,
    saturation_qps,
)

__all__ = [
    "ARRIVAL_PROCESSES",
    "BALANCER_POLICIES",
    "SERVICE_DISTRIBUTIONS",
    "ClusterConfig",
    "ClusterResult",
    "ClusterSimulation",
    "ClusterSizer",
    "DeterministicService",
    "ExponentialService",
    "LatencyStats",
    "LogNormalService",
    "MmkQueue",
    "MmppArrivals",
    "PoissonArrivals",
    "ServiceCapacity",
    "SizingResult",
    "SlaInfeasibleError",
    "calibrate_chip",
    "erlang_b",
    "erlang_c",
    "make_arrivals",
    "make_service_time",
    "saturation_qps",
    "simulate_cluster",
]
