"""Miss-ratio curves for scale-out workloads.

Scale-out workloads have a characteristic two-part LLC behaviour (Section 2.1.3):

* a *capturable* component -- the instruction footprint, OS data, and a modest
  secondary data working set -- that fits within a few megabytes and is captured
  quickly as LLC capacity grows;
* a *dataset* component -- accesses to the vast, memory-resident shard of data --
  that exhibits essentially no reuse at practical LLC sizes and therefore always
  misses.

We model the capturable component with a Hill (saturating) curve in capacity,
``capture(C) = C^k / (C^k + C_half^k)``, which rises steeply around ``C_half`` and
saturates for large caches.  This reproduces the paper's Figure 2.2: performance
improves until the 2--8 MB range and shows little or negative benefit beyond
16 MB (the residual dataset misses do not shrink, while access latency grows).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CaptureCurve:
    """Fraction of the capturable working set held by an LLC of a given capacity.

    Attributes:
        half_capture_mb: capacity at which half of the capturable component hits.
        exponent: steepness of the capture curve (Hill coefficient).
    """

    half_capture_mb: float
    exponent: float = 1.4

    def __post_init__(self) -> None:
        if self.half_capture_mb <= 0:
            raise ValueError("half_capture_mb must be positive")
        if self.exponent <= 0:
            raise ValueError("exponent must be positive")

    def capture_fraction(self, capacity_mb: float) -> float:
        """Fraction (0..1) of the capturable working set that hits in ``capacity_mb``."""
        if capacity_mb < 0:
            raise ValueError("capacity_mb must be non-negative")
        if capacity_mb == 0:
            return 0.0
        c_k = capacity_mb ** self.exponent
        h_k = self.half_capture_mb ** self.exponent
        return c_k / (c_k + h_k)


@dataclass(frozen=True)
class MissRatioCurve:
    """LLC misses-per-kilo-instruction (MPKI) as a function of capacity.

    The curve has three components:

    * ``floor_mpki`` -- the dataset component that misses regardless of LLC size;
    * ``capturable_mpki`` -- the secondary *data* working set, captured per
      ``capture``; misses here overlap with other misses (memory-level
      parallelism applies);
    * ``instruction_mpki`` -- the portion of the instruction footprint that spills
      out of small LLCs, captured per ``instruction_capture``; misses here stall
      the front end and overlap with nothing, which is why undersized LLCs are so
      costly for scale-out workloads (Section 2.1.3 / 2.1.4).

    Attributes:
        floor_mpki: dataset component that misses regardless of LLC size.
        capturable_mpki: data component that is progressively captured.
        capture: capture curve for the data component.
        instruction_mpki: instruction-footprint component.
        instruction_capture: capture curve for the instruction footprint (steep,
            centred well below the data component).
        sharing_dilution: how strongly per-core private footprints dilute the
            effective capacity when many cores share the LLC.  The paper's
            Figure 2.3 shows a ~16 % per-core performance loss from 2 to 256
            sharers under an *ideal* interconnect; a small dilution factor
            reproduces that mild degradation.
    """

    floor_mpki: float
    capturable_mpki: float
    capture: CaptureCurve
    instruction_mpki: float = 0.0
    instruction_capture: "CaptureCurve | None" = None
    sharing_dilution: float = 0.012

    def __post_init__(self) -> None:
        if self.floor_mpki < 0 or self.capturable_mpki < 0 or self.instruction_mpki < 0:
            raise ValueError("MPKI components must be non-negative")
        if self.sharing_dilution < 0:
            raise ValueError("sharing_dilution must be non-negative")
        if self.instruction_mpki > 0 and self.instruction_capture is None:
            raise ValueError("instruction_capture is required when instruction_mpki > 0")

    # ------------------------------------------------------------------ MPKI
    def effective_capacity_mb(self, capacity_mb: float, cores: int = 1) -> float:
        """Capacity seen by each core's capturable working set.

        Instructions and OS data are shared by all cores, but each core adds a
        small amount of private/thread data; the effective capacity therefore
        shrinks slowly with the number of sharers.
        """
        if cores < 1:
            raise ValueError("cores must be >= 1")
        return capacity_mb / (1.0 + self.sharing_dilution * (cores - 1))

    def data_mpki(self, capacity_mb: float, cores: int = 1) -> float:
        """Data-side LLC misses per kilo-instruction (dataset + uncaptured data WS)."""
        if capacity_mb < 0:
            raise ValueError("capacity_mb must be non-negative")
        effective = self.effective_capacity_mb(capacity_mb, cores)
        captured = self.capture.capture_fraction(effective)
        return self.floor_mpki + self.capturable_mpki * (1.0 - captured)

    def instruction_llc_mpki(self, capacity_mb: float, cores: int = 1) -> float:
        """Instruction-footprint LLC misses per kilo-instruction."""
        if capacity_mb < 0:
            raise ValueError("capacity_mb must be non-negative")
        if self.instruction_mpki == 0 or self.instruction_capture is None:
            return 0.0
        effective = self.effective_capacity_mb(capacity_mb, cores)
        captured = self.instruction_capture.capture_fraction(effective)
        return self.instruction_mpki * (1.0 - captured)

    def mpki(self, capacity_mb: float, cores: int = 1) -> float:
        """Total LLC misses per kilo-instruction with ``capacity_mb`` MB shared by ``cores``."""
        return self.data_mpki(capacity_mb, cores) + self.instruction_llc_mpki(capacity_mb, cores)
