"""Simple floorplan geometry used by the interconnect latency models.

The interconnect latency of a design depends on the physical distance between
cores and LLC banks, which in turn depends on how much silicon the cores and the
cache occupy.  :class:`Floorplan` captures just enough geometry (tile grid
dimensions, tile pitch, chip extent) to turn component areas into hop counts and
wire lengths, mirroring how the paper derives distance-dependent delays from die
area.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Floorplan:
    """Geometry of the core/LLC region of a chip or pod.

    Attributes:
        cores: number of core tiles.
        core_area_mm2: area of one core (including its L1 caches).
        llc_area_mm2: total LLC area.
        other_area_mm2: any additional area inside the region (directories, glue).
    """

    cores: int
    core_area_mm2: float
    llc_area_mm2: float
    other_area_mm2: float = 0.0

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise ValueError("cores must be >= 1")
        if self.core_area_mm2 <= 0:
            raise ValueError("core_area_mm2 must be positive")
        if self.llc_area_mm2 < 0 or self.other_area_mm2 < 0:
            raise ValueError("areas must be non-negative")

    # ------------------------------------------------------------------ area
    @property
    def region_area_mm2(self) -> float:
        """Total area of the cores + LLC region."""
        return self.cores * self.core_area_mm2 + self.llc_area_mm2 + self.other_area_mm2

    @property
    def extent_mm(self) -> float:
        """Linear extent of the (assumed square) region."""
        return math.sqrt(self.region_area_mm2)

    # ------------------------------------------------------------------ grid
    @property
    def grid_dims(self) -> "tuple[int, int]":
        """(rows, cols) of a near-square tile grid holding all core tiles."""
        cols = int(math.ceil(math.sqrt(self.cores)))
        rows = int(math.ceil(self.cores / cols))
        return rows, cols

    @property
    def tile_area_mm2(self) -> float:
        """Area of one tile in a tiled layout (core + its LLC slice share)."""
        return self.region_area_mm2 / self.cores

    @property
    def tile_pitch_mm(self) -> float:
        """Edge length of one (square) tile."""
        return math.sqrt(self.tile_area_mm2)

    # ------------------------------------------------------------- distances
    def average_mesh_hops(self) -> float:
        """Average Manhattan hop count between a random source and destination tile.

        For an ``R x C`` grid with uniformly random endpoints, the expected
        Manhattan distance is approximately ``(R + C) / 3``.
        """
        rows, cols = self.grid_dims
        return (rows + cols) / 3.0
