"""Vectorized fleet traffic generation: batched Poisson and MMPP streams.

The cluster layer's arrival processes are *count-driven* (exactly N requests)
and sequential; a fleet day is *duration-driven* -- each (epoch, datacenter,
class, origin) share contributes however many requests its rate produces over
the epoch -- and far too large for per-request Python loops.  This module
generates those chunks with numpy end to end:

* **Poisson**: conditional on the count ``N ~ Poisson(rate * T)``, the arrival
  instants of a Poisson process are ``N`` i.i.d. uniforms on ``[0, T)`` --
  one ``rng.poisson`` draw plus one sorted uniform batch.
* **MMPP**: the two-state modulated process is an inhomogeneous Poisson
  process with a piecewise-constant rate, so it is generated by *time-warp*:
  simulate the (short) phase chain, build the cumulative-rate function
  ``L(t)``, draw a unit-domain Poisson batch on ``[0, L(T))``, and map it
  back through the piecewise-linear inverse ``L^-1`` with ``np.interp``.
  Statistically exact, and vectorized in the (large) request dimension.

Every chunk derives its generator from a ``numpy`` :class:`~numpy.random.
SeedSequence` keyed on ``(seed, epoch, datacenter, class, origin)``, so
streams are independent, reproducible, and independent of generation order.
The service kernels and the test suite's event oracle consume the *same*
generated arrays, which is what makes bit-identity cheap.
The pinned-seed regression vectors in ``tests/test_fleet.py`` freeze these
streams against accidental RNG drift.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.service.arrivals import MmppArrivals

#: Stream-kind discriminators mixed into each chunk's seed material, so the
#: arrival and service streams of one chunk never overlap.
_ARRIVAL_STREAM = 0
_SERVICE_STREAM = 1
_ROUTING_STREAM = 2


def chunk_rng(
    seed: int, epoch: int, datacenter: int, request_class: int, origin: int,
    stream: int,
) -> np.random.Generator:
    """The deterministic generator of one (epoch, dc, class, origin) chunk."""
    sequence = np.random.SeedSequence(
        entropy=(int(seed), int(epoch), int(datacenter), int(request_class),
                 int(origin), int(stream))
    )
    return np.random.Generator(np.random.PCG64(sequence))


def routing_seed(seed: int, epoch: int, datacenter: int) -> int:
    """The ``random.Random`` seed replaying one chunk's balancer draws.

    Derived through the same :class:`~numpy.random.SeedSequence` machinery as
    the arrival streams, so the routing stream is independent of them; the
    chunk's kernel builds ``random.Random(routing_seed(...))`` from it.
    """
    sequence = np.random.SeedSequence(
        entropy=(int(seed), int(epoch), int(datacenter), _ROUTING_STREAM)
    )
    return int(sequence.generate_state(1, dtype=np.uint64)[0])


def poisson_arrival_times(
    rng: np.random.Generator, rate_rps: float, duration_s: float
) -> np.ndarray:
    """Arrival instants of a Poisson process over ``[0, duration_s)``.

    Draws the count, then sorts uniform instants -- exactly the conditional
    law of the process, with no per-request Python work.
    """
    if rate_rps < 0 or duration_s <= 0:
        raise ValueError("rate_rps must be >= 0 and duration_s positive")
    if rate_rps == 0:
        return np.empty(0, dtype=np.float64)
    count = int(rng.poisson(rate_rps * duration_s))
    return np.sort(rng.random(count)) * duration_s


def mmpp_phase_breakpoints(
    rng: np.random.Generator, process: MmppArrivals, duration_s: float
) -> "tuple[np.ndarray, np.ndarray]":
    """The cumulative-rate breakpoints of one MMPP sample path.

    Simulates the alternating quiet/burst phase chain (starting quiet, as the
    scalar :meth:`MmppArrivals.gaps` does) until it covers ``duration_s``, and
    returns ``(times, cumulative)`` -- the piecewise-linear cumulative rate
    ``L(t)`` evaluated at the phase-change instants, clipped to the epoch.
    """
    quiet_sojourn = process.mean_phase_s
    burst_sojourn = (
        process.mean_phase_s * process.burst_fraction / (1.0 - process.burst_fraction)
    )
    times = [0.0]
    cumulative = [0.0]
    now = 0.0
    total = 0.0
    bursting = False
    while now < duration_s:
        sojourn = burst_sojourn if bursting else quiet_sojourn
        span = float(rng.exponential(sojourn))
        rate = process.burst_rate_rps if bursting else process.quiet_rate_rps
        end = min(now + span, duration_s)
        total += rate * (end - now)
        times.append(end)
        cumulative.append(total)
        now += span
        bursting = not bursting
    return np.array(times, dtype=np.float64), np.array(cumulative, dtype=np.float64)


def mmpp_arrival_times(
    rng: np.random.Generator, process: MmppArrivals, duration_s: float
) -> np.ndarray:
    """Arrival instants of a two-state MMPP over ``[0, duration_s)``.

    Time-warp construction: unit-rate Poisson arrivals on the cumulative-rate
    axis, mapped back to wall time through the inverse of ``L(t)``.
    """
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    times, cumulative = mmpp_phase_breakpoints(rng, process, duration_s)
    total = float(cumulative[-1])
    if total <= 0:
        return np.empty(0, dtype=np.float64)
    count = int(rng.poisson(total))
    unit = np.sort(rng.random(count)) * total
    return np.interp(unit, cumulative, times)


def service_times(
    rng: np.random.Generator, distribution: str, mean_s: float, count: int
) -> np.ndarray:
    """``count`` per-request service times from the named distribution."""
    if mean_s <= 0:
        raise ValueError("mean_s must be positive")
    if distribution == "exponential":
        return rng.exponential(mean_s, count)
    if distribution == "deterministic":
        return np.full(count, mean_s, dtype=np.float64)
    raise ValueError(
        f"unsupported fleet service distribution {distribution!r}; "
        "known: exponential, deterministic"
    )


@dataclass(frozen=True)
class TrafficChunk:
    """One datacenter-epoch's merged request stream.

    Attributes:
        arrivals: sorted arrival instants within the epoch (seconds).
        services: per-request service times, aligned with ``arrivals``.
        class_ids: per-request class index into the fleet's class tuple.
        origin_ids: per-request origin index into the fleet's origin tuple.
        offered_qps: the fluid demand this chunk realizes (for telemetry).
    """

    arrivals: np.ndarray
    services: np.ndarray
    class_ids: np.ndarray
    origin_ids: np.ndarray
    offered_qps: float

    @property
    def count(self) -> int:
        """Requests in the chunk."""
        return int(self.arrivals.size)


def generate_chunk(
    seed: int,
    epoch: int,
    datacenter: int,
    shares: "list[tuple[int, int, float]]",
    duration_s: float,
    arrival: str,
    arrival_kwargs: "dict[str, float]",
    service_mean_s: float,
    service_distribution: str,
    class_service_scales: "tuple[float, ...]",
) -> TrafficChunk:
    """Generate and merge one datacenter-epoch's request stream.

    Args:
        seed: fleet root seed.
        epoch: epoch index.
        datacenter: datacenter index.
        shares: ``(class_index, origin_index, qps)`` fluid shares routed to
            this datacenter this epoch (declaration order -- determinism).
        duration_s: epoch width in seconds.
        arrival: ``"poisson"`` or ``"mmpp"``.
        arrival_kwargs: extra MMPP parameters (burstiness, ...).
        service_mean_s: the datacenter's base mean service time.
        service_distribution: the datacenter's service-time distribution.
        class_service_scales: per-class multipliers on ``service_mean_s``.

    Returns:
        A :class:`TrafficChunk` sorted by arrival time (stable merge, so
        equal-instant ties keep declaration order).
    """
    if arrival not in ("poisson", "mmpp"):
        raise ValueError(f"unsupported fleet arrival process {arrival!r}")
    arrival_parts: "list[np.ndarray]" = []
    service_parts: "list[np.ndarray]" = []
    class_parts: "list[np.ndarray]" = []
    origin_parts: "list[np.ndarray]" = []
    offered = 0.0
    for class_index, origin_index, qps in shares:
        offered += qps
        if qps <= 0:
            continue
        arrival_rng = chunk_rng(
            seed, epoch, datacenter, class_index, origin_index, _ARRIVAL_STREAM
        )
        if arrival == "poisson":
            times = poisson_arrival_times(arrival_rng, qps, duration_s)
        else:
            process = MmppArrivals(rate_rps=qps, **arrival_kwargs)
            times = mmpp_arrival_times(arrival_rng, process, duration_s)
        service_rng = chunk_rng(
            seed, epoch, datacenter, class_index, origin_index, _SERVICE_STREAM
        )
        work = service_times(
            service_rng,
            service_distribution,
            service_mean_s * class_service_scales[class_index],
            times.size,
        )
        arrival_parts.append(times)
        service_parts.append(work)
        class_parts.append(np.full(times.size, class_index, dtype=np.int64))
        origin_parts.append(np.full(times.size, origin_index, dtype=np.int64))
    if not arrival_parts:
        empty_f = np.empty(0, dtype=np.float64)
        empty_i = np.empty(0, dtype=np.int64)
        return TrafficChunk(empty_f, empty_f, empty_i, empty_i, offered)
    arrivals = np.concatenate(arrival_parts)
    order = np.argsort(arrivals, kind="stable")
    return TrafficChunk(
        arrivals=arrivals[order],
        services=np.concatenate(service_parts)[order],
        class_ids=np.concatenate(class_parts)[order],
        origin_ids=np.concatenate(origin_parts)[order],
        offered_qps=offered,
    )
