"""The fleet simulation engine: a multi-datacenter day over the service core.

A :class:`FleetSimulation` runs ``num_epochs`` epochs of a fleet day.  Each
epoch is a fluid-then-discrete step:

1. the :mod:`load shape <repro.fleet.loadshape>` sets the epoch's offered
   rate, and the :mod:`autoscaler <repro.fleet.autoscale>` (if any) picks
   each datacenter's server count from the previous epoch's observations;
2. the :mod:`routing policy <repro.fleet.routing>` splits each prioritized
   (class, origin) demand into per-datacenter fluid shares;
3. the :mod:`traffic generator <repro.fleet.traffic>` realizes each
   datacenter's merged request stream with seeded vectorized draws;
4. the service kernels simulate each datacenter-epoch chunk to completion.

**Determinism contract.** A chunk runs through
:func:`~repro.service.cluster.chunk_completions` -- the kernels of a single
cluster, except that a ``jsq`` chunk that can never fill every unit
completes each request at ``arrival + service`` without them -- over arrays
the seeded traffic generator draws the same way every run, so a fleet day is
bitwise reproducible (``tests/test_fleet_equivalence.py`` also holds it to
the discrete-event oracle, bit for bit).  Epochs are *stateless*:
each chunk starts from an empty cluster and runs to completion, so overload
shows up as intra-epoch queueing (utilization above 1.0) rather than
cross-epoch backlog -- the approximation is documented in ``docs/fleet.md``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fleet.autoscale import Autoscaler, EpochObservation, make_policy
from repro.fleet.geo import Datacenter, Region, network_latency_s
from repro.fleet.loadshape import LoadShape
from repro.fleet.metrics import (
    EpochDatacenterStats,
    FleetResult,
    LatencyHistogram,
)
from repro.fleet.routing import (
    DEFAULT_CLASSES,
    DEFAULT_SPILL_THRESHOLD,
    ROUTING_POLICIES,
    RequestClass,
    route_demand,
)
from repro.fleet.traffic import generate_chunk, routing_seed
from repro.perfmodel.analytic import require_positive_finite
from repro.service.cluster import chunk_completions


@dataclass(frozen=True)
class FleetConfig:
    """Configuration of one fleet-day simulation.

    Attributes:
        datacenters: the fleet's sites (each a cluster pinned to a region).
        offered_qps: fleet-wide mean arrival rate (the load shape modulates
            it per epoch; shapes are mean-1.0 so this is the day's average).
        classes: the prioritized request mix (fractions must sum to 1).
        routing: geo-routing policy (see ``ROUTING_POLICIES``).
        load_shape: per-epoch rate multipliers; ``None`` (or the empty
            shape) is the stationary baseline.
        num_epochs: epochs to simulate; defaults to the shape's trace length
            (or 24 for the stationary baseline).
        arrival: per-share arrival process (``"poisson"`` or ``"mmpp"``).
        arrival_kwargs: extra MMPP parameters (burstiness, ...).
        origin_weights: share of fleet demand originating at each
            datacenter's region (normalized internally; default uniform).
        spill_threshold: capacity headroom fraction for ``spillover``.
        autoscale: autoscaling policy name (``AUTOSCALE_POLICIES``) or
            ``None`` for a statically provisioned day.
        autoscale_kwargs: policy parameters (target, band, ...).
        cooldown_epochs: autoscaler cooldown window.
        autoscale_floors: optional per-datacenter server floors (N+k).
    """

    datacenters: "tuple[Datacenter, ...]"
    offered_qps: float
    classes: "tuple[RequestClass, ...]" = DEFAULT_CLASSES
    routing: str = "nearest"
    load_shape: "LoadShape | None" = None
    num_epochs: "int | None" = None
    arrival: str = "poisson"
    arrival_kwargs: "dict[str, float]" = field(default_factory=dict)
    origin_weights: "tuple[float, ...] | None" = None
    spill_threshold: float = DEFAULT_SPILL_THRESHOLD
    autoscale: "str | None" = None
    autoscale_kwargs: "dict[str, float]" = field(default_factory=dict)
    cooldown_epochs: int = 2
    autoscale_floors: "tuple[int, ...] | None" = None

    def __post_init__(self) -> None:
        if not self.datacenters:
            raise ValueError("a fleet needs at least one datacenter")
        require_positive_finite(offered_qps=self.offered_qps)
        if not self.classes:
            raise ValueError("a fleet needs at least one request class")
        if abs(sum(cls.fraction for cls in self.classes) - 1.0) > 1e-6:
            raise ValueError("class fractions must sum to 1")
        if self.routing not in ROUTING_POLICIES:
            raise ValueError(
                f"unknown routing policy {self.routing!r}; known: {ROUTING_POLICIES}"
            )
        if self.origin_weights is not None:
            if len(self.origin_weights) != len(self.datacenters):
                raise ValueError("origin_weights must give one weight per datacenter")
            if any(w < 0 for w in self.origin_weights) or sum(self.origin_weights) <= 0:
                raise ValueError("origin_weights must be non-negative with mass")
        if self.num_epochs is not None and self.num_epochs < 1:
            raise ValueError("num_epochs must be >= 1")

    @property
    def shape(self) -> LoadShape:
        """The effective load shape (the empty/stationary one when unset)."""
        return self.load_shape if self.load_shape is not None else LoadShape()

    @property
    def epochs(self) -> int:
        """Epochs the day simulates."""
        if self.num_epochs is not None:
            return self.num_epochs
        return self.shape.num_epochs or 24

    @property
    def epoch_s(self) -> float:
        """Epoch width in seconds (from the shape)."""
        return self.shape.epoch_s

    @property
    def origins(self) -> "tuple[Region, ...]":
        """Traffic origins: one per datacenter's region."""
        return tuple(dc.region for dc in self.datacenters)

    def normalized_origin_weights(self) -> "tuple[float, ...]":
        """Origin demand shares, normalized to sum to 1."""
        if self.origin_weights is None:
            return (1.0 / len(self.datacenters),) * len(self.datacenters)
        total = sum(self.origin_weights)
        return tuple(w / total for w in self.origin_weights)

    def capacity_qps(self) -> float:
        """Fleet-wide saturation throughput at the deployed server counts."""
        return sum(dc.capacity_qps() for dc in self.datacenters)


class FleetSimulation:
    """One simulated fleet day.

    Each datacenter-epoch chunk runs through
    :func:`~repro.service.cluster.chunk_completions`, which covers every
    datacenter policy.  ``engine`` accepts only ``"fast"``: the fleet has one
    engine, and the keyword stays because the benchmark harness
    (``perfbench/``) passes ``engine="fast"``.  ``collect_samples=True``
    additionally keeps exact per-class latency sample tuples (small runs
    only; the day-scale path sticks to histograms).
    """

    def __init__(
        self,
        config: FleetConfig,
        seed: int = 1,
        engine: str = "fast",
        collect_samples: bool = False,
    ):
        if engine != "fast":
            raise ValueError(f"engine must be 'fast', the only fleet engine, got {engine!r}")
        self.config = config
        self.seed = seed
        self.collect_samples = collect_samples

    # ------------------------------------------------------------ allocation
    def _allocate_epoch(
        self, epoch_qps: float, capacities: "list[float]"
    ) -> "list[list[tuple[int, int, float]]]":
        """Fluid routing of one epoch's demand: shares per datacenter.

        Classes are processed in (priority, declaration) order and origins in
        declaration order, so ``spillover``'s running allocation -- and the
        order chunks are generated and merged in -- is deterministic.
        """
        config = self.config
        origins = config.origins
        weights = config.normalized_origin_weights()
        allocated = [0.0] * len(config.datacenters)
        shares: "list[list[tuple[int, int, float]]]" = [
            [] for _ in config.datacenters
        ]
        order = sorted(
            range(len(config.classes)),
            key=lambda c: (config.classes[c].priority, c),
        )
        for class_index in order:
            cls = config.classes[class_index]
            for origin_index, weight in enumerate(weights):
                demand = epoch_qps * cls.fraction * weight
                if demand <= 0:
                    continue
                for dc_index, qps in route_demand(
                    config.routing,
                    origins[origin_index],
                    demand,
                    config.datacenters,
                    capacities,
                    allocated,
                    config.spill_threshold,
                ):
                    shares[dc_index].append((class_index, origin_index, qps))
        return shares

    # ------------------------------------------------------------------ run
    def run(self) -> FleetResult:
        """Simulate the configured day and aggregate its metrics."""
        from repro.obs.tracer import get_tracer

        config = self.config
        tracer = get_tracer()
        with tracer.span(
            "fleet.day",
            category="fleet",
            datacenters=len(config.datacenters),
            epochs=config.epochs,
            routing=config.routing,
        ):
            return self._run(tracer)

    def _run(self, tracer) -> FleetResult:
        config = self.config
        shape = config.shape
        epoch_s = config.epoch_s
        datacenters = config.datacenters
        autoscaler = None
        if config.autoscale is not None:
            autoscaler = Autoscaler(
                make_policy(config.autoscale, **config.autoscale_kwargs),
                datacenters,
                cooldown_epochs=config.cooldown_epochs,
                floors=config.autoscale_floors,
            )
        # Network latency per (datacenter, origin), added to end-to-end
        # latency with one vectorized gather per chunk.
        net = [
            np.array(
                [
                    network_latency_s(origin, dc.region)
                    for origin in config.origins
                ],
                dtype=np.float64,
            )
            for dc in datacenters
        ]
        scales = tuple(cls.service_scale for cls in config.classes)

        servers = [dc.num_servers for dc in datacenters]
        observed: "list[EpochObservation | None]" = [None] * len(datacenters)
        epoch_stats: "list[EpochDatacenterStats]" = []
        class_hists = {cls.name: LatencyHistogram() for cls in config.classes}
        dc_hists = {dc.name: LatencyHistogram() for dc in datacenters}
        samples: "dict[str, list[np.ndarray]] | None" = (
            {cls.name: [] for cls in config.classes} if self.collect_samples else None
        )
        server_hours = {dc.name: 0.0 for dc in datacenters}
        scale_events = {dc.name: 0 for dc in datacenters}
        total_requests = 0
        network_sum_s = 0.0

        for epoch in range(config.epochs):
            if tracer.enabled:
                tracer.counter("fleet.epochs").add()
            epoch_qps = config.offered_qps * shape.multiplier(epoch)
            if autoscaler is not None and epoch > 0:
                for index, datacenter in enumerate(datacenters):
                    if observed[index] is None:
                        continue
                    planned = autoscaler.plan(
                        epoch, index, servers[index], observed[index]
                    )
                    if planned != servers[index]:
                        scale_events[datacenter.name] += 1
                        if tracer.enabled:
                            direction = "up" if planned > servers[index] else "down"
                            tracer.counter(f"fleet.scale_{direction}").add()
                        servers[index] = planned
            capacities = [
                dc.capacity_qps(servers[index])
                for index, dc in enumerate(datacenters)
            ]
            shares = self._allocate_epoch(epoch_qps, capacities)
            for index, datacenter in enumerate(datacenters):
                server_hours[datacenter.name] += servers[index] * epoch_s / 3600.0
                chunk = generate_chunk(
                    self.seed,
                    epoch,
                    index,
                    shares[index],
                    epoch_s,
                    config.arrival,
                    config.arrival_kwargs,
                    datacenter.service_mean_s,
                    datacenter.service_distribution,
                    scales,
                )
                stats = EpochDatacenterStats(
                    epoch=epoch,
                    datacenter=datacenter.name,
                    servers=servers[index],
                    offered_qps=chunk.offered_qps,
                    requests=chunk.count,
                    busy_s=float(chunk.services.sum()) if chunk.count else 0.0,
                )
                if chunk.count:
                    completions = chunk_completions(
                        chunk.arrivals, chunk.services,
                        datacenter.policy, servers[index],
                        datacenter.parallelism, routing_seed(self.seed, epoch, index),
                    )
                    latencies = completions - chunk.arrivals
                    network = net[index][chunk.origin_ids]
                    network_sum_s += float(network.sum())
                    latencies = latencies + network
                    stats.histogram.add_batch(latencies)
                    dc_hists[datacenter.name].add_batch(latencies)
                    for class_index, cls in enumerate(config.classes):
                        mask = chunk.class_ids == class_index
                        if mask.any():
                            class_latencies = latencies[mask]
                            class_hists[cls.name].add_batch(class_latencies)
                            if samples is not None:
                                samples[cls.name].append(class_latencies)
                    total_requests += chunk.count
                    if tracer.enabled:
                        tracer.counter("fleet.requests").add(chunk.count)
                observed[index] = EpochObservation(
                    offered_qps=chunk.offered_qps,
                    completed_requests=chunk.count,
                    mean_latency_s=(
                        stats.histogram.mean_s if chunk.count else float("nan")
                    ),
                    utilization=stats.utilization(datacenter.parallelism, epoch_s),
                )
                epoch_stats.append(stats)

        class_samples = None
        if samples is not None:
            class_samples = {
                name: tuple(
                    np.sort(np.concatenate(parts)).tolist() if parts else ()
                )
                for name, parts in samples.items()
            }
        return FleetResult(
            total_requests=total_requests,
            epoch_stats=epoch_stats,
            class_histograms=class_hists,
            datacenter_histograms=dc_hists,
            class_samples=class_samples,
            server_hours=server_hours,
            scale_events=scale_events,
            network_sum_s=network_sum_s,
        )


def simulate_fleet(
    config: FleetConfig, seed: int = 1, collect_samples: bool = False
) -> FleetResult:
    """Convenience wrapper: build and run one fleet-day simulation."""
    return FleetSimulation(config, seed=seed, collect_samples=collect_samples).run()
