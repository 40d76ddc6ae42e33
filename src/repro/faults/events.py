"""Fault events and the immutable, content-addressed fault schedule.

Three event kinds cover the failure modes the dependability studies model:

* :class:`ServerCrash` -- a server goes down at ``at_s`` and comes back at
  ``restart_s`` (crash + restart-after-MTTR); work queued or in flight on the
  server at crash time is lost.
* :class:`Straggler` -- a server serves requests ``slowdown`` times slower
  during a window (the classic slow-machine failure mode).
* :class:`LinkFault` -- a NoC link is degraded (latency multiplied) or down
  (removed from the topology, traffic routes around it).

A :class:`FaultSchedule` bundles the events for one run.  It is frozen,
picklable (sweeps ship schedules to pool workers), and carries a SHA-256
:meth:`~FaultSchedule.digest` over its canonical JSON rendering, so envelope
provenance and the run ledger can pin exactly which fault load a result was
produced under.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from repro.perfmodel.analytic import require_count

#: Severities a :class:`LinkFault` can carry.
LINK_SEVERITIES = ("degraded", "down")


@dataclass(frozen=True)
class ServerCrash:
    """One server crash with its restart time.

    Attributes:
        server: index of the crashed server (0-based).
        at_s: simulation time of the crash, in seconds.
        restart_s: simulation time the server rejoins the cluster; must be
            after ``at_s`` (the gap is the repair time, MTTR).
    """

    server: int
    at_s: float
    restart_s: float

    def __post_init__(self) -> None:
        # The server index must be an integer; the time and slowdown checks
        # are written so that NaN fails them.
        require_count("server", self.server, 0)
        if not self.at_s >= 0:
            raise ValueError(f"at_s (crash time) must be >= 0, got {self.at_s!r}")
        if not self.restart_s > self.at_s:
            raise ValueError(f"restart_s must be after at_s, got {self.restart_s!r}")

    @property
    def downtime_s(self) -> float:
        """Repair time of this crash (restart minus crash)."""
        return self.restart_s - self.at_s


@dataclass(frozen=True)
class Straggler:
    """A slow-machine window: one server serves ``slowdown``x slower.

    Attributes:
        server: index of the straggling server.
        at_s: window start, in seconds.
        until_s: window end; must be after ``at_s``.
        slowdown: service-time multiplier applied while the window is open
            (must be >= 1; 1 is a no-op).
    """

    server: int
    at_s: float
    until_s: float
    slowdown: float

    def __post_init__(self) -> None:
        # The server index must be an integer; the time and slowdown checks
        # are written so that NaN fails them.
        require_count("server", self.server, 0)
        if not self.at_s >= 0:
            raise ValueError(f"at_s (straggler start) must be >= 0, got {self.at_s!r}")
        if not self.until_s > self.at_s:
            raise ValueError(f"until_s must be after at_s, got {self.until_s!r}")
        if not self.slowdown >= 1.0:
            raise ValueError(f"slowdown must be >= 1, got {self.slowdown!r}")


@dataclass(frozen=True)
class LinkFault:
    """One degraded or failed NoC link.

    Attributes:
        link: undirected (a, b) node pair naming the link; both directed
            edges are affected.
        severity: ``"degraded"`` (latency multiplied by ``latency_factor``)
            or ``"down"`` (the link is removed and traffic routes around it).
        latency_factor: latency multiplier for degraded links; also the
            fallback penalty when removing a ``"down"`` link would partition
            the network (see :func:`repro.faults.noc.apply_link_faults`).
    """

    link: "tuple[int, int]"
    severity: str = "degraded"
    latency_factor: float = 4.0

    def __post_init__(self) -> None:
        if self.severity not in LINK_SEVERITIES:
            raise ValueError(
                f"severity must be one of {LINK_SEVERITIES}, got {self.severity!r}"
            )
        if not 1.0 <= self.latency_factor < math.inf:  # NaN fails too
            raise ValueError("latency_factor must be finite and >= 1")
        # Normalise tuple-ness so schedules hash identically however built.
        object.__setattr__(self, "link", (int(self.link[0]), int(self.link[1])))


def _merge_intervals(intervals: "list[tuple[float, float]]") -> "list[tuple[float, float]]":
    """Union of possibly overlapping [start, end) intervals, sorted."""
    merged: "list[tuple[float, float]]" = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


@dataclass(frozen=True)
class FaultSchedule:
    """The complete, immutable fault load of one run.

    Attributes:
        crashes: server crash/restart events, any order.
        stragglers: slow-machine windows, any order.
        link_faults: NoC link faults (applied for the whole run).
        seed: the generator seed the schedule was drawn from (``None`` for
            hand-built schedules); recorded for provenance only.
        horizon_s: the time horizon the schedule was generated for.
    """

    crashes: "tuple[ServerCrash, ...]" = ()
    stragglers: "tuple[Straggler, ...]" = ()
    link_faults: "tuple[LinkFault, ...]" = ()
    seed: "int | None" = None
    horizon_s: float = 0.0

    def __post_init__(self) -> None:
        # Accept any iterable for convenience; store canonical tuples.
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "stragglers", tuple(self.stragglers))
        object.__setattr__(self, "link_faults", tuple(self.link_faults))

    # ----------------------------------------------------------------- shape
    @property
    def num_events(self) -> int:
        """Total number of fault events in the schedule."""
        return len(self.crashes) + len(self.stragglers) + len(self.link_faults)

    def is_empty(self) -> bool:
        """Whether the schedule carries no fault at all (the zero-fault case).

        Empty schedules make fault-aware callers take exactly the un-faulted
        code path, so a zero-fault run is byte-identical to one that never
        heard of faults.
        """
        return self.num_events == 0

    # ------------------------------------------------------------- identity
    def canonical(self) -> "dict[str, object]":
        """Deterministic JSON-able rendering (the digest's preimage)."""
        return {
            "crashes": [
                [c.server, c.at_s, c.restart_s]
                for c in sorted(self.crashes, key=lambda c: (c.at_s, c.server))
            ],
            "stragglers": [
                [s.server, s.at_s, s.until_s, s.slowdown]
                for s in sorted(self.stragglers, key=lambda s: (s.at_s, s.server))
            ],
            "link_faults": [
                [list(f.link), f.severity, f.latency_factor]
                for f in sorted(self.link_faults, key=lambda f: f.link)
            ],
            "horizon_s": self.horizon_s,
        }

    def digest(self) -> str:
        """SHA-256 content digest of the schedule (seed-independent).

        Two schedules with identical events share a digest regardless of how
        they were built, so provenance records pin the *fault load*, not the
        construction path.
        """
        payload = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------ downtime
    def downtime_intervals(self, server: int) -> "list[tuple[float, float]]":
        """Merged [crash, restart) downtime intervals of one server."""
        return _merge_intervals(
            [(c.at_s, c.restart_s) for c in self.crashes if c.server == server]
        )

    def downtime_s(self, num_servers: int, duration_s: float) -> float:
        """Total server-downtime (seconds) within ``[0, duration_s]``.

        The availability denominator is ``num_servers * duration_s``; this is
        its numerator's complement, summed over per-server merged intervals
        so overlapping crash records never double-count.
        """
        if duration_s <= 0:
            return 0.0
        total = 0.0
        for server in range(num_servers):
            for start, end in self.downtime_intervals(server):
                total += max(0.0, min(end, duration_s) - min(start, duration_s))
        return total
