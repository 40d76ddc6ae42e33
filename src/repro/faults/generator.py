"""Seeded fault-load generation: config in, deterministic schedule out.

The generator is the only place randomness enters the fault subsystem.  A
:class:`FaultLoadGenerator` draws every event stream from its own
string-seeded :class:`random.Random` (``f"{seed}/crash/{server}"`` and
friends), so:

* the schedule is a pure function of ``(config, seed, num_servers,
  horizon_s, links)`` -- same inputs, same schedule, bit for bit;
* per-server streams are independent -- adding a server never perturbs the
  fault history of the others;
* string seeding is platform-stable (``random.Random`` hashes str seeds via
  sha512, not ``hash()``), so schedules reproduce across machines.

Time scale: the simulated horizons here are sub-second (``num_requests /
offered_qps``), while real MTBFs are months.  The studies therefore run
*accelerated* dependability experiments: fault load is expressed as crash
intensity (expected crashes per server over the horizon) or as an explicit
MTBF on the simulated clock, and MTTR as a fraction of the horizon.  The
mapping to real-world rates is a linear rescaling of the clock; see
``docs/faults.md``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.faults.events import FaultSchedule, LinkFault, ServerCrash, Straggler


@dataclass(frozen=True)
class FaultLoadConfig:
    """Declarative fault-load parameters (all streams optional).

    Attributes:
        crash_intensity: expected number of crashes per server over the
            horizon (Poisson process; 0 disables crashes).  The effective
            MTBF on the simulated clock is ``horizon_s / crash_intensity``.
        mttr_fraction: deterministic repair time as a fraction of the
            horizon (each crash restarts ``mttr_fraction * horizon_s``
            seconds later).
        straggler_intensity: expected number of straggler windows per server
            over the horizon (0 disables stragglers).
        straggler_fraction: straggler window length as a fraction of the
            horizon.
        straggler_slowdown: service-time multiplier inside a window.
        num_failed_links: NoC links taken down outright.
        num_degraded_links: NoC links whose latency is multiplied.
        link_degradation_factor: the latency multiplier for degraded links.
    """

    crash_intensity: float = 0.0
    mttr_fraction: float = 0.1
    straggler_intensity: float = 0.0
    straggler_fraction: float = 0.2
    straggler_slowdown: float = 4.0
    num_failed_links: int = 0
    num_degraded_links: int = 0
    link_degradation_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.crash_intensity < 0:
            raise ValueError("crash_intensity must be >= 0")
        if not 0 < self.mttr_fraction < 1:
            raise ValueError("mttr_fraction must be in (0, 1)")
        if self.straggler_intensity < 0:
            raise ValueError("straggler_intensity must be >= 0")
        if not 0 < self.straggler_fraction < 1:
            raise ValueError("straggler_fraction must be in (0, 1)")
        if self.straggler_slowdown < 1:
            raise ValueError("straggler_slowdown must be >= 1")
        if self.num_failed_links < 0 or self.num_degraded_links < 0:
            raise ValueError("link fault counts must be >= 0")
        if self.link_degradation_factor < 1:
            raise ValueError("link_degradation_factor must be >= 1")


class FaultLoadGenerator:
    """Draws deterministic :class:`FaultSchedule` objects from a seed.

    Args:
        config: the fault-load parameters.
        seed: base seed; every event stream derives its own
            ``random.Random(f"{seed}/<stream>")`` from it.
    """

    def __init__(self, config: FaultLoadConfig, seed: int = 1):
        self.config = config
        self.seed = int(seed)

    # ------------------------------------------------------------- streams
    def _stream(self, name: str) -> random.Random:
        """An independent, platform-stable RNG for one event stream."""
        return random.Random(f"{self.seed}/{name}")

    def _server_crashes(self, server: int, horizon_s: float) -> "list[ServerCrash]":
        """One server's crash/restart history over the horizon."""
        config = self.config
        mtbf_s = horizon_s / config.crash_intensity
        mttr_s = config.mttr_fraction * horizon_s
        rng = self._stream(f"crash/{server}")
        crashes: "list[ServerCrash]" = []
        t = rng.expovariate(1.0 / mtbf_s)
        while t < horizon_s:
            restart = t + mttr_s
            crashes.append(ServerCrash(server=server, at_s=t, restart_s=restart))
            # The next failure clock starts when the server is back up.
            t = restart + rng.expovariate(1.0 / mtbf_s)
        return crashes

    def _server_stragglers(self, server: int, horizon_s: float) -> "list[Straggler]":
        """One server's straggler windows over the horizon."""
        config = self.config
        gap_s = horizon_s / config.straggler_intensity
        window_s = config.straggler_fraction * horizon_s
        rng = self._stream(f"straggler/{server}")
        windows: "list[Straggler]" = []
        t = rng.expovariate(1.0 / gap_s)
        while t < horizon_s:
            windows.append(
                Straggler(
                    server=server,
                    at_s=t,
                    until_s=t + window_s,
                    slowdown=config.straggler_slowdown,
                )
            )
            t = t + window_s + rng.expovariate(1.0 / gap_s)
        return windows

    def _link_faults(self, links: "tuple[tuple[int, int], ...]") -> "list[LinkFault]":
        """Sample failed then degraded links, without replacement."""
        config = self.config
        wanted = config.num_failed_links + config.num_degraded_links
        if wanted == 0 or not links:
            return []
        # Canonical undirected link list: (min, max), sorted, deduplicated.
        pool = sorted({(min(a, b), max(a, b)) for a, b in links})
        rng = self._stream("links")
        picked = rng.sample(pool, min(wanted, len(pool)))
        faults: "list[LinkFault]" = []
        for index, link in enumerate(picked):
            if index < config.num_failed_links:
                faults.append(LinkFault(link=link, severity="down"))
            else:
                faults.append(
                    LinkFault(
                        link=link,
                        severity="degraded",
                        latency_factor=config.link_degradation_factor,
                    )
                )
        return faults

    # ------------------------------------------------------------ schedule
    def schedule(
        self,
        num_servers: int,
        horizon_s: float,
        links: "tuple[tuple[int, int], ...]" = (),
    ) -> FaultSchedule:
        """Generate the fault schedule for one run.

        Args:
            num_servers: cluster size (crash/straggler streams exist per
                server).
            horizon_s: the run's time horizon in seconds.
            links: the undirected NoC links eligible for link faults (omit
                for pure service-cluster studies).

        Returns:
            A deterministic, content-addressed :class:`FaultSchedule`.
        """
        if num_servers <= 0:
            raise ValueError("num_servers must be positive")
        if horizon_s <= 0:
            raise ValueError("horizon_s must be positive")
        config = self.config
        crashes: "list[ServerCrash]" = []
        stragglers: "list[Straggler]" = []
        if config.crash_intensity > 0:
            for server in range(num_servers):
                crashes.extend(self._server_crashes(server, horizon_s))
        if config.straggler_intensity > 0:
            for server in range(num_servers):
                stragglers.extend(self._server_stragglers(server, horizon_s))
        return FaultSchedule(
            crashes=tuple(sorted(crashes, key=lambda c: (c.at_s, c.server))),
            stragglers=tuple(sorted(stragglers, key=lambda s: (s.at_s, s.server))),
            link_faults=tuple(self._link_faults(tuple(links))),
            seed=self.seed,
            horizon_s=horizon_s,
        )
