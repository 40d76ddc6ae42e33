"""Synthetic memory-reference trace generation.

The cycle-level simulator (:mod:`repro.sim`) is trace-driven: each core consumes a
:class:`Trace` -- the memory references the core makes between committed
instructions, stored as one column per :class:`TraceEvent` field and drawn in
one bulk pass per core.  The original study extracted this behaviour
from full-system execution of CloudSuite; here we synthesize statistically
equivalent traces from the workload profiles.

Address-space model
-------------------

Each core's references are drawn from five regions whose sizes and access
probabilities are derived from the profile so that the *expected* L1 and LLC miss
rates match the profile:

* ``hot``       -- per-core private data (stack, hot locals); always hits the L1-D.
* ``shared_small`` -- shared OS/application structures that miss the 32 KB L1 but
  comfortably fit in any LLC.
* ``capturable``   -- the secondary working set; misses the L1 and hits the LLC only
  once the LLC is large enough to hold it (the Hill capture curve emerges from the
  region's footprint versus the simulated LLC capacity).
* ``dataset``      -- the vast memory-resident shard; effectively never reuses.
* ``instructions`` -- the instruction footprint; L1-I misses are generated directly
  at the profile's L1-I MPKI and almost always hit the LLC.

A small fraction of data references target *actively shared* lines (lines recently
written by another core), which is what produces coherence snoops in the simulated
directory, reproducing Figure 4.3's low snoop rates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.workloads.profile import WorkloadProfile

#: Cache line size used throughout the reproduction (Table 2.2).
LINE_BYTES = 64

#: Fraction of data references that are writes.
WRITE_FRACTION = 0.22

#: Regions of the four LLC-visible event classes, indexed by drawn class.
_DRAWN_REGIONS = ("instructions", "dataset", "capturable", "shared_small")


@dataclass(frozen=True)
class TraceEvent:
    """One memory reference in a synthetic trace.

    Attributes:
        instruction_gap: number of instructions committed since the previous
            reference from this core (models compute between memory operations).
        address: byte address of the reference (line-aligned).
        is_instruction: True for an instruction fetch that missed the L1-I.
        is_write: True for stores.
        shared: True when the line is actively shared with other cores (may
            trigger a coherence snoop at the directory).
    """

    instruction_gap: int
    address: int
    is_instruction: bool
    is_write: bool
    shared: bool


@dataclass(slots=True)
class Trace:
    """One core's reference trace, stored as columns (one list per field).

    Row ``i`` is the ``i``-th :class:`TraceEvent`: indexing or iterating yields
    rows, ``len()`` is the event count, and equality compares values.  The
    cycle-level simulator's measured window derives its per-event columns
    from these in one numpy pass.
    """

    gaps: "list[int]"
    addresses: "list[int]"
    is_instruction: "list[bool]"
    is_write: "list[bool]"
    shared: "list[bool]"

    @classmethod
    def from_events(cls, events: "Iterable[TraceEvent]") -> "Trace":
        """Build the columns of a trace from its rows."""
        events = list(events)
        return cls(
            gaps=[e.instruction_gap for e in events],
            addresses=[e.address for e in events],
            is_instruction=[e.is_instruction for e in events],
            is_write=[e.is_write for e in events],
            shared=[e.shared for e in events],
        )

    def __len__(self) -> int:
        return len(self.gaps)

    def __getitem__(self, index: int) -> TraceEvent:
        return TraceEvent(
            self.gaps[index],
            self.addresses[index],
            self.is_instruction[index],
            self.is_write[index],
            self.shared[index],
        )

    def __iter__(self) -> "Iterator[TraceEvent]":
        return map(
            TraceEvent, self.gaps, self.addresses, self.is_instruction, self.is_write, self.shared
        )


@dataclass(frozen=True)
class _Region:
    """A contiguous region of the synthetic address space."""

    name: str
    base: int
    size_bytes: int


class SyntheticTraceGenerator:
    """Generates per-core synthetic reference traces for one workload.

    Args:
        workload: the workload profile to mimic.
        cores: number of cores in the simulated system (regions are laid out so
            private regions never collide across cores).
        seed: RNG seed; traces are deterministic given (workload, cores, seed).
        core_type: which core's L1 configuration the trace is filtered for.
    """

    #: Virtual address-space layout (generous, purely synthetic).
    _INSTR_BASE = 0x0000_0000_1000_0000
    _SHARED_SMALL_BASE = 0x0000_0001_0000_0000
    _CAPTURABLE_BASE = 0x0000_0002_0000_0000
    _DATASET_BASE = 0x0000_0010_0000_0000
    _SHARED_HOT_BASE = 0x0000_0200_0000_0000

    def __init__(
        self,
        workload: WorkloadProfile,
        cores: int = 1,
        seed: int = 1,
        core_type: str = "ooo",
    ):
        if cores < 1:
            raise ValueError("cores must be >= 1")
        self.workload = workload
        self.cores = cores
        self.seed = seed
        self.core_type = core_type

        i_mpki, d_mpki = workload.l1_mpki(core_type)
        curve = workload.llc_curve
        self.l1i_miss_per_instr = i_mpki / 1000.0
        self.l1d_miss_per_instr = d_mpki / 1000.0
        self.dataset_per_instr = curve.floor_mpki / 1000.0
        self.capturable_per_instr = (
            curve.capturable_mpki * workload.behavior(core_type).l1_miss_scale / 1000.0
        )
        shared_small = self.l1d_miss_per_instr - self.dataset_per_instr - self.capturable_per_instr
        self.shared_small_per_instr = max(0.0, shared_small)

        # Region footprints.
        self.regions = {
            "instructions": _Region(
                "instructions", self._INSTR_BASE, workload.instruction_footprint_kb * 1024
            ),
            "shared_small": _Region("shared_small", self._SHARED_SMALL_BASE, 512 * 1024),
            "capturable": _Region(
                "capturable",
                self._CAPTURABLE_BASE,
                int(curve.capture.half_capture_mb * 2 * 1024 * 1024),
            ),
            "dataset": _Region(
                "dataset", self._DATASET_BASE, workload.dataset_footprint_mb * 1024 * 1024
            ),
            "shared_hot": _Region("shared_hot", self._SHARED_HOT_BASE, 256 * 1024),
        }

    # ------------------------------------------------------------- generator
    def events_for_core(self, core_id: int, instructions: int) -> Trace:
        """Generate the reference trace for ``core_id`` covering ``instructions``.

        Only references that reach the LLC (L1 misses) are emitted, plus a small
        stream of actively-shared references; L1-resident traffic is summarized by
        the instruction gaps.  This is the reduced-fidelity substitution for
        full-system tracing described in ``docs/architecture.md``.

        Every draw is one bulk call on the core's stream, in a fixed order:
        event classes, gaps, write flags, sharing flags, then one line pick per
        event bounded by its region's line count.
        """
        if core_id < 0 or core_id >= self.cores:
            raise ValueError(f"core_id {core_id} out of range for {self.cores} cores")
        if instructions <= 0:
            raise ValueError("instructions must be positive")

        rng = np.random.default_rng((self.seed, core_id, self.cores, 0xC0DE))

        # Per-instruction probabilities of each LLC-visible event class, in the
        # order of _DRAWN_REGIONS.
        p = (
            self.l1i_miss_per_instr,
            self.dataset_per_instr,
            self.capturable_per_instr,
            self.shared_small_per_instr,
        )
        p_total = sum(p)
        if p_total <= 0:
            return Trace([], [], [], [], [])

        # Number of LLC-visible references in this window (expected value, made
        # deterministic to keep traces stable across runs).
        n_events = max(1, int(round(instructions * p_total)))
        gap_mean = instructions / n_events

        kinds = rng.choice(len(p), size=n_events, p=[q / p_total for q in p])
        gaps = rng.poisson(gap_mean, size=n_events)
        writes = rng.random(n_events) < WRITE_FRACTION
        shared_draw = rng.random(n_events) < self.workload.snoop_fraction

        # Instruction fetches are clean private reads; a shared data reference
        # goes to the actively-shared lines instead of its class's region.
        is_data = kinds != 0
        shared = shared_draw & is_data
        region = np.where(shared, len(_DRAWN_REGIONS), kinds)
        regions = [self.regions[name] for name in (*_DRAWN_REGIONS, "shared_hot")]
        bases = np.array([r.base for r in regions], dtype=np.int64)
        lines = np.array([max(1, r.size_bytes // LINE_BYTES) for r in regions], dtype=np.int64)
        picks = rng.integers(0, lines[region])
        return Trace(
            gaps=np.maximum(gaps, 1).tolist(),
            addresses=(bases[region] + picks * LINE_BYTES).tolist(),
            is_instruction=(~is_data).tolist(),
            is_write=(writes & is_data).tolist(),
            shared=shared.tolist(),
        )
