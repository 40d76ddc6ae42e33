"""Statistical workload profiles.

A :class:`WorkloadProfile` captures everything the analytic performance model and
the synthetic trace generator need to know about one scale-out workload:

* L1 instruction and data miss rates (per kilo-instruction) for the 32 KB L1s used
  by the simple cores, and a scale factor for the larger 64 KB L1s of the
  conventional core;
* the LLC miss-ratio curve (:class:`~repro.workloads.missrate.MissRatioCurve`);
* memory-level parallelism for LLC-hit data accesses and off-chip misses;
* the fraction of LLC accesses that trigger a coherence snoop (Figure 4.3);
* software scalability limits observed in the paper (Table 3.1);
* off-chip traffic characteristics used to provision memory channels.

The numbers themselves live in :mod:`repro.workloads.cloudsuite`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.missrate import MissRatioCurve


@dataclass(frozen=True)
class CoreBehavior:
    """Core-type-specific execution parameters for one workload.

    Attributes:
        base_cpi: cycles per instruction when all memory accesses hit in the L1s
            (captures issue width, branch behaviour, and core-internal stalls).
        l1_miss_scale: multiplier on the workload's L1 MPKI for this core's L1
            configuration (the conventional core's 64 KB L1s capture more of the
            footprint than the 32 KB L1s of the simple cores).
        data_mlp: average number of overlapping outstanding L1-D misses serviced by
            the LLC (out-of-order cores overlap more).
        memory_mlp: average number of overlapping off-chip misses.
    """

    base_cpi: float
    l1_miss_scale: float
    data_mlp: float
    memory_mlp: float

    def __post_init__(self) -> None:
        if self.base_cpi <= 0:
            raise ValueError("base_cpi must be positive")
        if self.l1_miss_scale <= 0:
            raise ValueError("l1_miss_scale must be positive")
        if self.data_mlp < 1.0 or self.memory_mlp < 1.0:
            raise ValueError("MLP factors must be >= 1")


@dataclass(frozen=True)
class WorkloadProfile:
    """Statistical characterization of one scale-out workload.

    Attributes:
        name: workload name as used in the paper's figures.
        l1i_mpki: L1-I misses per kilo-instruction with 32 KB, 2-way L1-I.
        l1d_mpki: L1-D misses per kilo-instruction with 32 KB, 2-way L1-D.
        llc_curve: the LLC miss-ratio curve.
        core_behavior: per-core-type execution parameters keyed by core type name
            (``"conventional"``, ``"ooo"``, ``"inorder"``).
        snoop_fraction: fraction of LLC accesses that trigger a snoop message to a
            core (Figure 4.3; averages 2.7 % across the suite).
        dirty_writeback_fraction: fraction of LLC misses that also cause a
            writeback to memory, inflating off-chip traffic.
        max_cores: largest core count at which the software stack scales
            (Table 3.1: 16 for Media Streaming, 32 for Web Frontend / Web Search,
            64 for the rest).
        instruction_footprint_kb: approximate dynamic instruction footprint, used
            by the synthetic trace generator.
        dataset_footprint_mb: per-core dataset shard touched by the trace
            generator (far larger than any LLC).
        latency_sensitive: True for workloads with tight response-time targets.
        instructions_per_request: dynamic instructions one user request costs on
            a single core, used by the service-level queueing model to convert
            per-core IPC into requests per second.
    """

    name: str
    l1i_mpki: float
    l1d_mpki: float
    llc_curve: MissRatioCurve
    core_behavior: "dict[str, CoreBehavior]"
    snoop_fraction: float
    dirty_writeback_fraction: float = 0.05
    max_cores: int = 64
    instruction_footprint_kb: int = 512
    dataset_footprint_mb: int = 512
    latency_sensitive: bool = True
    instructions_per_request: float = 2_000_000.0

    def __post_init__(self) -> None:
        if self.l1i_mpki < 0 or self.l1d_mpki < 0:
            raise ValueError("L1 MPKI values must be non-negative")
        if self.instructions_per_request <= 0:
            raise ValueError("instructions_per_request must be positive")
        if not 0.0 <= self.snoop_fraction <= 1.0:
            raise ValueError("snoop_fraction must be within [0, 1]")
        if not 0.0 <= self.dirty_writeback_fraction <= 1.0:
            raise ValueError("dirty_writeback_fraction must be within [0, 1]")
        if self.max_cores < 1:
            raise ValueError("max_cores must be >= 1")
        required = {"conventional", "ooo", "inorder"}
        missing = required - set(self.core_behavior)
        if missing:
            raise ValueError(f"core_behavior missing entries for: {sorted(missing)}")

    # ----------------------------------------------------------------- access
    def behavior(self, core_type: str) -> CoreBehavior:
        """Execution parameters for ``core_type`` (conventional / ooo / inorder)."""
        key = core_type.lower()
        aliases = {
            "conv": "conventional",
            "out-of-order": "ooo",
            "out_of_order": "ooo",
            "io": "inorder",
            "in-order": "inorder",
            "in_order": "inorder",
        }
        key = aliases.get(key, key)
        try:
            return self.core_behavior[key]
        except KeyError:
            raise KeyError(f"no core behavior for {core_type!r} in workload {self.name}") from None

    # -------------------------------------------------------------- L1 misses
    def l1_mpki(self, core_type: str) -> "tuple[float, float]":
        """(instruction, data) L1 MPKI adjusted for the core type's L1 capacity."""
        beh = self.behavior(core_type)
        return self.l1i_mpki * beh.l1_miss_scale, self.l1d_mpki * beh.l1_miss_scale

    def llc_accesses_per_kilo_instruction(self, core_type: str) -> float:
        """Total LLC accesses per kilo-instruction (instruction plus data misses)."""
        i_mpki, d_mpki = self.l1_mpki(core_type)
        return i_mpki + d_mpki

    # ------------------------------------------------------------- LLC misses
    def llc_data_mpki(self, capacity_mb: float, cores: int = 1, core_type: str = "ooo") -> float:
        """Data-side off-chip misses per kilo-instruction (MLP applies to these).

        The miss curve is defined for the simple-core L1 configuration; the
        conventional core's bigger L1s filter proportionally more of the capturable
        traffic, so the capturable component is rescaled by ``l1_miss_scale``.
        """
        beh = self.behavior(core_type)
        curve = self.llc_curve
        raw = curve.data_mpki(capacity_mb, cores)
        floor = curve.floor_mpki
        capturable_part = raw - floor
        return floor + capturable_part * beh.l1_miss_scale

    def llc_instruction_mpki(
        self, capacity_mb: float, cores: int = 1, core_type: str = "ooo"
    ) -> float:
        """Instruction-footprint off-chip misses per kilo-instruction (no overlap)."""
        beh = self.behavior(core_type)
        return self.llc_curve.instruction_llc_mpki(capacity_mb, cores) * beh.l1_miss_scale

    def llc_mpki(self, capacity_mb: float, cores: int = 1, core_type: str = "ooo") -> float:
        """Total off-chip misses per kilo-instruction for a shared LLC of ``capacity_mb``."""
        return self.llc_data_mpki(capacity_mb, cores, core_type) + self.llc_instruction_mpki(
            capacity_mb, cores, core_type
        )

    # ----------------------------------------------------------- off-chip BW
    def offchip_bytes_per_instruction(
        self, capacity_mb: float, cores: int = 1, core_type: str = "ooo", line_bytes: int = 64
    ) -> float:
        """Average bytes of DRAM traffic per committed instruction."""
        mpki = self.llc_mpki(capacity_mb, cores, core_type)
        per_miss = line_bytes * (1.0 + self.dirty_writeback_fraction)
        return mpki / 1000.0 * per_miss
