"""Reactive autoscaling: epoch-boundary capacity decisions with cooldowns.

Autoscaling in the fleet engine is *reactive*: at each epoch boundary a
policy looks at the previous epoch's observations (offered load, mean
latency) for one datacenter and proposes a server count for the next epoch.
The :class:`Autoscaler` wraps the policy with the operational guard rails
production autoscalers need:

* **cooldown** -- after a change, the count is frozen for ``cooldown_epochs``
  epochs, preventing flapping on oscillating load;
* **hysteresis** -- the target-utilization policy keeps the current count
  while measured utilization sits inside its dead band;
* **bounds** -- per-datacenter ``min_servers``/``max_servers``, with a
  scale-to-zero guard (never below one server);
* **N+k floors** -- optional per-datacenter lower bounds, typically from
  :meth:`repro.service.sizing.ClusterSizer.size_n_plus_k`, so reactive
  scaling never undercuts the dependability-sized deployment.

Decisions are pure functions of observations, so a fleet day is bit-for-bit
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

from repro.fleet.geo import Datacenter

#: The autoscaling policy names the fleet studies accept.
AUTOSCALE_POLICIES = ("static", "target_utilization", "queue_depth")


@dataclass(frozen=True)
class EpochObservation:
    """What one datacenter observed over one epoch.

    Attributes:
        offered_qps: fluid demand routed to the datacenter.
        completed_requests: requests simulated in the epoch.
        mean_latency_s: mean end-to-end latency (``nan`` with no traffic).
        utilization: busy time over deployed unit-seconds.
    """

    offered_qps: float
    completed_requests: int
    mean_latency_s: float
    utilization: float


class ScalingPolicy(Protocol):
    """The decision interface: observations in, desired server count out."""

    name: str

    def desired_servers(
        self, datacenter: Datacenter, current: int, observed: EpochObservation
    ) -> int:
        """Proposed server count for the next epoch (pre-clamping)."""
        ...  # pragma: no cover - protocol signature


@dataclass(frozen=True)
class StaticPolicy:
    """No scaling: every epoch keeps the deployed count (the baseline)."""

    name: str = "static"

    def desired_servers(
        self, datacenter: Datacenter, current: int, observed: EpochObservation
    ) -> int:
        """Always the current count."""
        return current


@dataclass(frozen=True)
class TargetUtilizationPolicy:
    """Track a utilization setpoint with a hysteresis dead band.

    Sizes the next epoch for ``observed.offered_qps`` at ``target``
    utilization; while the measured utilization stays within ``band`` of the
    setpoint the current count is kept, so small load noise does not churn
    capacity.

    Attributes:
        target: utilization setpoint in (0, 1).
        band: half-width of the no-action dead band around ``target``.
    """

    target: float = 0.65
    band: float = 0.10
    name: str = "target_utilization"

    def __post_init__(self) -> None:
        if not 0.0 < self.target < 1.0:
            raise ValueError("target must be in (0, 1)")
        if not 0.0 <= self.band < self.target:
            raise ValueError("band must be in [0, target)")

    def desired_servers(
        self, datacenter: Datacenter, current: int, observed: EpochObservation
    ) -> int:
        """Demand over per-server capacity at the setpoint, with dead band."""
        if abs(observed.utilization - self.target) <= self.band:
            return current
        per_server_qps = datacenter.parallelism / datacenter.service_mean_s
        return max(1, math.ceil(observed.offered_qps / (per_server_qps * self.target)))


@dataclass(frozen=True)
class QueueDepthPolicy:
    """Bound the mean in-system requests per service unit (Little's law).

    The previous epoch's mean depth per unit is estimated as
    ``offered_qps * mean_latency / (servers * parallelism)``; the next epoch
    is sized so that depth lands at ``target_depth`` assuming latency stays
    put -- a queue-pressure trigger that reacts to latency, not just load.

    Attributes:
        target_depth: desired mean in-system requests per service unit.
        trigger_ratio: no-action band -- scaling only fires when the
            observed depth is above ``target_depth * trigger_ratio`` or
            below ``target_depth / trigger_ratio``.
    """

    target_depth: float = 0.8
    trigger_ratio: float = 1.25
    name: str = "queue_depth"

    def __post_init__(self) -> None:
        if self.target_depth <= 0:
            raise ValueError("target_depth must be positive")
        if self.trigger_ratio < 1.0:
            raise ValueError("trigger_ratio must be >= 1")

    def desired_servers(
        self, datacenter: Datacenter, current: int, observed: EpochObservation
    ) -> int:
        """Little's-law resize when depth leaves the trigger band."""
        if observed.completed_requests == 0 or not math.isfinite(
            observed.mean_latency_s
        ):
            return current
        in_system = observed.offered_qps * observed.mean_latency_s
        depth = in_system / (current * datacenter.parallelism)
        if self.target_depth / self.trigger_ratio <= depth <= (
            self.target_depth * self.trigger_ratio
        ):
            return current
        return max(
            1, math.ceil(in_system / (datacenter.parallelism * self.target_depth))
        )


def make_policy(name: str, **kwargs) -> ScalingPolicy:
    """Build a named autoscaling policy (see :data:`AUTOSCALE_POLICIES`)."""
    factories = {
        "static": StaticPolicy,
        "target_utilization": TargetUtilizationPolicy,
        "queue_depth": QueueDepthPolicy,
    }
    try:
        factory = factories[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown autoscaling policy {name!r}; known: {AUTOSCALE_POLICIES}"
        ) from None
    return factory(**kwargs)


class Autoscaler:
    """A policy plus the guard rails: cooldown, bounds, and N+k floors.

    Args:
        policy: the scaling decision policy.
        datacenters: the fleet's sites (per-site min/max bounds).
        cooldown_epochs: epochs a datacenter's count is frozen after any
            change (0 disables the cooldown).
        floors: optional per-datacenter lower bounds -- e.g. the ``servers``
            of a :class:`~repro.service.sizing.RedundantSizingResult` from
            ``size_n_plus_k`` -- applied after the policy and bounds.
    """

    def __init__(
        self,
        policy: ScalingPolicy,
        datacenters: "tuple[Datacenter, ...]",
        cooldown_epochs: int = 2,
        floors: "Sequence[int] | None" = None,
    ):
        if cooldown_epochs < 0:
            raise ValueError("cooldown_epochs must be >= 0")
        if floors is not None and len(floors) != len(datacenters):
            raise ValueError("floors must give one bound per datacenter")
        self.policy = policy
        self.datacenters = datacenters
        self.cooldown_epochs = cooldown_epochs
        self.floors = tuple(int(f) for f in floors) if floors is not None else None
        self._frozen_until = [0] * len(datacenters)

    def clamp(self, index: int, servers: int) -> int:
        """Apply bounds, the N+k floor, and the scale-to-zero guard."""
        datacenter = self.datacenters[index]
        servers = max(servers, datacenter.min_servers, 1)
        if self.floors is not None:
            servers = max(servers, self.floors[index])
        if datacenter.max_servers is not None:
            servers = min(servers, datacenter.max_servers)
        return servers

    def plan(
        self, epoch: int, index: int, current: int, observed: EpochObservation
    ) -> int:
        """The server count datacenter ``index`` deploys for ``epoch``.

        Inside the cooldown window the current count is kept untouched;
        otherwise the policy's (clamped) proposal applies and, if it changed
        the count, starts a new cooldown window.
        """
        if epoch < self._frozen_until[index]:
            return current
        desired = self.clamp(
            index,
            self.policy.desired_servers(self.datacenters[index], current, observed),
        )
        if desired != current:
            self._frozen_until[index] = epoch + self.cooldown_epochs
        return desired
