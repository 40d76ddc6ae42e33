"""Per-request service-time distributions.

The time one service unit (a core, or a pod acting as one coherence domain)
spends on a request.  The mean comes from the chip calibration
(:mod:`repro.service.calibration`); the distribution shape controls how heavy
the latency tail is before any queueing happens:

* :class:`DeterministicService` -- every request costs exactly the mean
  (M/D/k behaviour, the mildest tail);
* :class:`ExponentialService` -- memoryless service (M/M/k, the analytic
  reference the sizing layer uses);
* :class:`LogNormalService` -- right-skewed service times, the empirically
  observed shape for request service in interactive datacenter services.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from repro.service.draws import uniform_batch


@dataclass(frozen=True)
class DeterministicService:
    """Constant service time."""

    mean_s: float

    def __post_init__(self) -> None:
        if self.mean_s <= 0:
            raise ValueError("mean_s must be positive")

    def sample(self, rng: random.Random) -> float:
        """The mean; ``rng`` is not drawn from."""
        return self.mean_s

    def sample_batch(self, rng: random.Random, count: int) -> np.ndarray:
        """``count`` samples as one array (no random draws needed)."""
        return np.full(count, self.mean_s, dtype=np.float64)


@dataclass(frozen=True)
class ExponentialService:
    """Exponentially distributed service time (rate ``1 / mean_s``)."""

    mean_s: float

    def __post_init__(self) -> None:
        if self.mean_s <= 0:
            raise ValueError("mean_s must be positive")

    def sample(self, rng: random.Random) -> float:
        """One sample by inverse transform of one ``rng.random()`` uniform."""
        return -math.log(1.0 - rng.random()) * self.mean_s

    def sample_batch(self, rng: random.Random, count: int) -> np.ndarray:
        """``count`` samples, one bulk-drawn uniform each, transformed at once."""
        uniforms = uniform_batch(rng, count)
        return -np.log1p(-uniforms) * self.mean_s


@dataclass(frozen=True)
class LogNormalService:
    """Log-normal service time with the given mean and coefficient of variation.

    Attributes:
        mean_s: mean service time in seconds.
        cv: coefficient of variation (std / mean); 1.0 matches the exponential
            distribution's variability with a heavier far tail.
    """

    mean_s: float
    cv: float = 1.0

    def __post_init__(self) -> None:
        if self.mean_s <= 0:
            raise ValueError("mean_s must be positive")
        if self.cv <= 0:
            raise ValueError("cv must be positive")

    def sample(self, rng: random.Random) -> float:
        """One sample from ``rng.lognormvariate`` with the matching mu and sigma."""
        sigma2 = math.log(1.0 + self.cv * self.cv)
        mu = math.log(self.mean_s) - 0.5 * sigma2
        return rng.lognormvariate(mu, math.sqrt(sigma2))

    def sample_batch(self, rng: random.Random, count: int) -> np.ndarray:
        """``count`` samples; the stdlib lognormal draw stays per-sample."""
        return np.fromiter(
            (self.sample(rng) for _ in range(count)), dtype=np.float64, count=count
        )


#: Service-time factories keyed by the names the experiments/CLI use.
SERVICE_DISTRIBUTIONS = {
    "deterministic": DeterministicService,
    "exponential": ExponentialService,
    "lognormal": LogNormalService,
}


def make_service_time(
    name: str, mean_s: float, **kwargs
) -> "DeterministicService | ExponentialService | LogNormalService":
    """Build a named service-time distribution with the given mean."""
    try:
        factory = SERVICE_DISTRIBUTIONS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown service distribution {name!r}; known: {sorted(SERVICE_DISTRIBUTIONS)}"
        ) from None
    return factory(mean_s, **kwargs)
