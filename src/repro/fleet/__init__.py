"""Fleet-scale traffic simulation: geo-routing, diurnal load, autoscaling.

The fleet layer composes the single-cluster service engine into a
multi-datacenter simulation (chapter 10): :class:`Datacenter` sites pinned to
:class:`Region` coordinates, :mod:`geo-routing <repro.fleet.routing>` policies
splitting regional demand, :class:`LoadShape` diurnal/bursty modulation over
the day, prioritized :class:`RequestClass` mixes, and reactive
:mod:`autoscaling <repro.fleet.autoscale>` graded on monthly TCO vs SLA
attainment.  Fleet days replay bit-identically to the discrete-event oracle
-- the property suite in ``tests/test_fleet_equivalence.py`` enforces it.
Semantics and the
determinism contract are documented in ``docs/fleet.md``.
"""

from repro.fleet.autoscale import (
    AUTOSCALE_POLICIES,
    Autoscaler,
    EpochObservation,
    QueueDepthPolicy,
    ScalingPolicy,
    StaticPolicy,
    TargetUtilizationPolicy,
    make_policy,
)
from repro.fleet.engine import FleetConfig, FleetSimulation, simulate_fleet
from repro.fleet.geo import (
    DEFAULT_BASE_LATENCY_S,
    DEFAULT_LATENCY_PER_UNIT_S,
    Datacenter,
    Region,
    network_latency_s,
)
from repro.fleet.loadshape import DIURNAL_24, FLASH_CROWD_24, LoadShape
from repro.fleet.metrics import (
    MONTH_HOURS,
    EpochDatacenterStats,
    FleetResult,
    LatencyHistogram,
)
from repro.fleet.routing import (
    DEFAULT_CLASSES,
    DEFAULT_SPILL_THRESHOLD,
    ROUTING_POLICIES,
    RequestClass,
    latency_rank,
    route_demand,
)
from repro.fleet.traffic import (
    TrafficChunk,
    chunk_rng,
    generate_chunk,
    mmpp_arrival_times,
    poisson_arrival_times,
    routing_seed,
    service_times,
)

__all__ = [
    "AUTOSCALE_POLICIES",
    "Autoscaler",
    "DEFAULT_BASE_LATENCY_S",
    "DEFAULT_CLASSES",
    "DEFAULT_LATENCY_PER_UNIT_S",
    "DEFAULT_SPILL_THRESHOLD",
    "DIURNAL_24",
    "Datacenter",
    "EpochDatacenterStats",
    "EpochObservation",
    "FLASH_CROWD_24",
    "FleetConfig",
    "FleetResult",
    "FleetSimulation",
    "LatencyHistogram",
    "LoadShape",
    "MONTH_HOURS",
    "QueueDepthPolicy",
    "ROUTING_POLICIES",
    "Region",
    "RequestClass",
    "ScalingPolicy",
    "StaticPolicy",
    "TargetUtilizationPolicy",
    "TrafficChunk",
    "chunk_rng",
    "generate_chunk",
    "latency_rank",
    "make_policy",
    "mmpp_arrival_times",
    "network_latency_s",
    "poisson_arrival_times",
    "route_demand",
    "routing_seed",
    "service_times",
    "simulate_fleet",
]
