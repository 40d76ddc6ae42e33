"""Open-loop request arrival processes.

Datacenter front-ends see an *open* arrival stream: users issue requests
independently of how loaded the cluster is, so queues grow without bound past
saturation instead of throttling.  Two processes are provided:

* :class:`PoissonArrivals` -- memoryless arrivals at a fixed mean rate, the
  standard model for aggregated independent users;
* :class:`MmppArrivals` -- a two-state Markov-modulated Poisson process that
  alternates between a quiet and a bursty phase, capturing the flash-crowd
  behaviour that makes tail latency so much worse than mean latency.

Both draw from a caller-supplied :class:`random.Random`, so a seeded stream is
fully deterministic.  ``PoissonArrivals`` consumes exactly one uniform variate
per request, which means two streams with the same seed but different rates
produce *proportional* arrival times -- the common-random-numbers property the
load sweeps rely on for monotone load-latency curves.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.service.draws import uniform_batch


@dataclass(frozen=True)
class PoissonArrivals:
    """Poisson process: i.i.d. exponential interarrival gaps.

    Attributes:
        rate_rps: mean arrival rate in requests per second.
    """

    rate_rps: float

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")

    def gaps(self, rng: random.Random) -> "Iterator[float]":
        """Endless stream of interarrival gaps (seconds)."""
        while True:
            # Inverse-transform sampling (one uniform per request) so equal
            # seeds at different rates yield exactly scaled arrival times.
            yield -math.log(1.0 - rng.random()) / self.rate_rps

    def sample_times(self, rng: random.Random, count: int) -> np.ndarray:
        """``count`` absolute arrival times, generated as one batch.

        Consumes one uniform per request from ``rng`` (the same values as
        :meth:`gaps` draws, taken in bulk by
        :func:`~repro.service.draws.uniform_batch`), vectorizing the log
        transform and the running-time accumulation; the
        common-random-numbers scaling property is preserved exactly because
        the uniforms are shared across rates.
        """
        uniforms = uniform_batch(rng, count)
        gaps = -np.log1p(-uniforms) / self.rate_rps
        return np.cumsum(gaps)


@dataclass(frozen=True)
class MmppArrivals:
    """Two-state Markov-modulated Poisson process (quiet phase / burst phase).

    The process spends ``burst_fraction`` of its time (in expectation) in the
    burst phase, where arrivals come ``burstiness`` times faster than in the
    quiet phase; rates are normalized so the long-run mean rate is ``rate_rps``.
    Phase sojourn times are exponential with mean ``mean_phase_s``.

    Attributes:
        rate_rps: long-run mean arrival rate in requests per second.
        burstiness: burst-phase rate divided by quiet-phase rate (> 1).
        burst_fraction: expected fraction of time spent in the burst phase.
        mean_phase_s: mean sojourn time of the *quiet* phase in seconds (the
            burst phase sojourn is scaled to honour ``burst_fraction``).
    """

    rate_rps: float
    burstiness: float = 4.0
    burst_fraction: float = 0.2
    mean_phase_s: float = 0.1

    def __post_init__(self) -> None:
        if self.rate_rps <= 0:
            raise ValueError("rate_rps must be positive")
        if self.burstiness <= 1.0:
            raise ValueError("burstiness must be > 1")
        if not 0.0 < self.burst_fraction < 1.0:
            raise ValueError("burst_fraction must be in (0, 1)")
        if self.mean_phase_s <= 0:
            raise ValueError("mean_phase_s must be positive")

    @property
    def quiet_rate_rps(self) -> float:
        """Arrival rate of the quiet phase."""
        mix = (1.0 - self.burst_fraction) + self.burst_fraction * self.burstiness
        return self.rate_rps / mix

    @property
    def burst_rate_rps(self) -> float:
        """Arrival rate of the burst phase."""
        return self.quiet_rate_rps * self.burstiness

    def gaps(self, rng: random.Random) -> "Iterator[float]":
        """Endless stream of interarrival gaps (seconds)."""
        quiet_sojourn = self.mean_phase_s
        burst_sojourn = self.mean_phase_s * self.burst_fraction / (1.0 - self.burst_fraction)
        bursting = False
        phase_left = rng.expovariate(1.0 / quiet_sojourn)
        gap = 0.0
        while True:
            rate = self.burst_rate_rps if bursting else self.quiet_rate_rps
            to_arrival = rng.expovariate(rate)
            if to_arrival <= phase_left:
                phase_left -= to_arrival
                yield gap + to_arrival
                gap = 0.0
            else:
                # The phase flips before the next arrival; restart the
                # (memoryless) arrival clock at the new rate.
                gap += phase_left
                bursting = not bursting
                sojourn = burst_sojourn if bursting else quiet_sojourn
                phase_left = rng.expovariate(1.0 / sojourn)

    def sample_times(self, rng: random.Random, count: int) -> np.ndarray:
        """``count`` absolute arrival times (batched via the gap stream).

        The modulated process is inherently sequential (each gap depends on
        the phase state), so batching here only amortizes the accumulation.
        """
        gap_stream = self.gaps(rng)
        gaps = np.fromiter(
            (next(gap_stream) for _ in range(count)), dtype=np.float64, count=count
        )
        return np.cumsum(gaps)


#: Arrival-process factories keyed by the names the experiments/CLI use.
ARRIVAL_PROCESSES = {
    "poisson": PoissonArrivals,
    "mmpp": MmppArrivals,
}


def make_arrivals(name: str, rate_rps: float, **kwargs) -> "PoissonArrivals | MmppArrivals":
    """Build a named arrival process at ``rate_rps``."""
    try:
        factory = ARRIVAL_PROCESSES[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown arrival process {name!r}; known: {sorted(ARRIVAL_PROCESSES)}"
        ) from None
    return factory(rate_rps, **kwargs)
