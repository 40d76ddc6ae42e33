"""Fault injection and dependability metrics.

At the scale the service studies target, failures are the steady state, not
the exception: servers crash and restart, NoC links degrade or fail outright,
and individual machines limp along orders of magnitude slower than their
peers.  This package makes those events first-class, reproducible inputs:

* :mod:`repro.faults.events` -- the fault vocabulary
  (:class:`ServerCrash`, :class:`Straggler`, :class:`LinkFault`) and the
  immutable :class:`FaultSchedule` that carries a content digest so any
  faulted run can be traced back to its exact fault load;
* :mod:`repro.faults.generator` -- the seeded :class:`FaultLoadGenerator`
  turning a :class:`FaultLoadConfig` into a deterministic schedule;
* :mod:`repro.faults.inject` -- dependability accounting over the service
  cluster's faulted kernel, which takes the schedule directly;
* :mod:`repro.faults.noc` -- link-fault injection for the NoC simulation as
  a pure topology transform;
* :mod:`repro.faults.metrics` -- :class:`DependabilityStats` (availability,
  goodput, time-to-recover) collected alongside the latency percentiles.

Determinism contract: a schedule is a pure function of its generator's seed
and configuration, injection only consumes the schedule (never a live RNG),
and zero-fault runs take exactly the un-faulted code path -- byte-identical
results, cache keys, and envelopes.
"""

from repro.faults.events import FaultSchedule, LinkFault, ServerCrash, Straggler
from repro.faults.generator import FaultLoadConfig, FaultLoadGenerator
from repro.faults.metrics import DependabilityStats, availability_from_downtime
from repro.faults.noc import apply_link_faults

__all__ = [
    "DependabilityStats",
    "FaultLoadConfig",
    "FaultLoadGenerator",
    "FaultSchedule",
    "LinkFault",
    "ServerCrash",
    "Straggler",
    "apply_link_faults",
    "availability_from_downtime",
]
