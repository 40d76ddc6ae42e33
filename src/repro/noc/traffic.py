"""Bilateral core-to-LLC traffic generation.

Scale-out workloads exhibit a *core-to-cache bilateral* access pattern
(Section 4.2.1): cores send requests to LLC banks and receive responses; there is
essentially no core-to-core traffic, and only ~2.7 % of LLC accesses trigger a
snoop.  The traffic generator turns a workload profile and a per-core IPC into a
stream of request/response (and occasional snoop) packets for the NoC simulator.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from repro.noc.fastpath import CLASS_CODES, PacketBatch
from repro.noc.packet import MessageClass, Packet
from repro.noc.topology import NocTopology
from repro.workloads.profile import WorkloadProfile

_REQUEST = CLASS_CODES[MessageClass.DATA_REQUEST]
_SNOOP = CLASS_CODES[MessageClass.SNOOP_REQUEST]
_RESPONSE = CLASS_CODES[MessageClass.RESPONSE]


def bilateral_injection_rate(
    workload: WorkloadProfile, per_core_ipc: float, core_type: str = "ooo"
) -> float:
    """LLC accesses injected per core per cycle (the generator's rate law).

    The single definition shared by the generator, the study's memoized batch
    path, and the benchmark unit counter -- change it here and every consumer
    stays in lockstep.
    """
    apki = workload.llc_accesses_per_kilo_instruction(core_type)
    return apki / 1000.0 * per_core_ipc


@dataclass(frozen=True)
class TrafficSummary:
    """Summary of one generated traffic batch."""

    packets: int
    requests: int
    responses: int
    snoops: int
    duration_cycles: float


class BilateralTrafficGenerator:
    """Generates the request/response/snoop packet stream for one workload.

    Args:
        topology: the NoC topology packets travel over.
        workload: workload profile (LLC access rate, snoop fraction).
        per_core_ipc: sustained per-core IPC used to convert accesses per
            instruction into injection rates.
        core_type: core model name (L1 filtering differs per core).
        seed: RNG seed.
    """

    def __init__(
        self,
        topology: NocTopology,
        workload: WorkloadProfile,
        per_core_ipc: float = 0.8,
        core_type: str = "ooo",
        seed: int = 1,
    ):
        if not 0 < per_core_ipc < math.inf:
            raise ValueError(f"per_core_ipc must be positive and finite, got {per_core_ipc!r}")
        self.topology = topology
        self.workload = workload
        self.per_core_ipc = per_core_ipc
        self.core_type = core_type
        self.seed = seed
        #: LLC accesses injected per core per cycle.
        self.injection_rate = bilateral_injection_rate(workload, per_core_ipc, core_type)

    def generate(
        self, duration_cycles: int = 20_000, active_cores: "int | None" = None
    ) -> "list[Packet]":
        """Generate all packets injected during ``duration_cycles``.

        Each LLC access produces a request packet from the core to a (uniformly
        chosen) LLC node and a response packet back after a nominal bank service
        delay; a ``snoop_fraction`` of accesses additionally produce a snoop
        packet from the LLC node to another core.

        This is the object adapter over :meth:`generate_batch` -- both views
        draw from the random stream identically, so seeded traffic is the same
        whether consumed as objects or as arrays.
        """
        return self.generate_batch(duration_cycles, active_cores).to_packets()

    def generate_batch(
        self, duration_cycles: int = 20_000, active_cores: "int | None" = None
    ) -> PacketBatch:
        """Generate the same traffic as :meth:`generate`, as a :class:`PacketBatch`.

        Emission order, packet ids, and every random draw match the historical
        per-object generator: each core draws its access count (Poisson), sorted
        injection times, LLC targets, and snoop flags, then one victim per snoop
        in arrival order.  Packets are laid out interleaved per access
        (request, response, optional snoop), exactly as the object stream was.
        """
        return generate_bilateral_batch(
            core_nodes=self.topology.core_nodes,
            llc_nodes=self.topology.llc_nodes,
            injection_rate=self.injection_rate,
            snoop_fraction=self.workload.snoop_fraction,
            seed=self.seed,
            duration_cycles=duration_cycles,
            active_cores=active_cores,
        )

    def summarize(
        self, packets: "list[Packet] | PacketBatch", duration_cycles: float
    ) -> TrafficSummary:
        """Summary statistics of a generated batch (objects or arrays)."""
        if isinstance(packets, PacketBatch):
            codes = packets.class_code
            requests = int((codes == _REQUEST).sum())
            responses = int((codes == _RESPONSE).sum())
            snoops = int((codes == _SNOOP).sum())
        else:
            requests = sum(1 for p in packets if p.message_class is MessageClass.DATA_REQUEST)
            responses = sum(1 for p in packets if p.message_class is MessageClass.RESPONSE)
            snoops = sum(1 for p in packets if p.message_class is MessageClass.SNOOP_REQUEST)
        return TrafficSummary(
            packets=len(packets),
            requests=requests,
            responses=responses,
            snoops=snoops,
            duration_cycles=duration_cycles,
        )


def require_count(name: str, value: object, minimum: int) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is an integer >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def generate_bilateral_batch(
    core_nodes: "list[int]",
    llc_nodes: "list[int]",
    injection_rate: float,
    snoop_fraction: float,
    seed: int,
    duration_cycles: int,
    active_cores: "int | None" = None,
) -> PacketBatch:
    """The bilateral traffic pattern as arrays (the generator's pure core).

    Module-level so callers that know the scalar inputs (rate, fraction, seed)
    can generate -- and memoize -- batches without building a topology-bound
    generator object.  Each core draws, in turn, its access count (Poisson),
    sorted injection times, LLC targets, snoop flags and one victim per snoop;
    the packets of every core are then laid out in one pass.

    Raises:
        ValueError: an argument is out of range (the message names it).
    """
    require_count("duration_cycles", duration_cycles, 1)
    if active_cores is not None:
        require_count("active_cores", active_cores, 0)
    if not 0 <= injection_rate < math.inf:
        raise ValueError(f"injection_rate must be finite and >= 0, got {injection_rate!r}")
    if not 0 <= snoop_fraction <= 1:
        raise ValueError(f"snoop_fraction must be in [0, 1], got {snoop_fraction!r}")
    if not len(llc_nodes):
        raise ValueError("llc_nodes must not be empty")
    rng = np.random.default_rng((seed, 0xABCD, duration_cycles))
    cores = np.array(core_nodes[:active_cores], dtype=np.int64)
    llcs = np.asarray(llc_nodes)
    expected = injection_rate * duration_cycles
    bank_service = 4.0
    counts = np.empty(len(cores), dtype=np.int64)
    # Each list starts with an empty part so that zero cores concatenate.
    times, targets, snoops, victims = [np.empty(0)], [cores[:0]], [np.empty(0, bool)], [cores[:0]]
    for index in range(len(cores)):
        count = counts[index] = rng.poisson(expected)
        times.append(np.sort(rng.uniform(0, duration_cycles, size=count)))
        # ``rng.integers(n, size=k)`` is the draw ``rng.choice`` of an
        # n-element array makes, so the stream advances as with choice.
        targets.append(llcs[rng.integers(len(llcs), size=count)])
        snoops.append(rng.random(count) < snoop_fraction)
        # One victim per snoop, in arrival order, in one bulk draw.
        victims.append(rng.integers(len(cores), size=np.count_nonzero(snoops[-1])))
    times, targets, snoops = map(np.concatenate, (times, targets, snoops))
    requester = np.repeat(cores, counts)
    # Access j emits its request at slot 2*j + (snoops before j), its response
    # right after, and its snoop (if any) right after that.
    request_pos = 2 * np.arange(len(times), dtype=np.int64) + (np.cumsum(snoops) - snoops)
    snoop_pos = request_pos[snoops] + 2
    size = 2 * len(times) + len(snoop_pos)
    responses_at = times + bank_service
    injection = np.empty(size, dtype=np.float64)
    source, destination, class_code = (np.empty(size, dtype=np.int64) for _ in range(3))
    for column, request, response, snoop in (
        (injection, times, responses_at, responses_at[snoops]),
        (source, requester, targets, targets[snoops]),
        (destination, targets, requester, cores[np.concatenate(victims)]),
        (class_code, _REQUEST, _RESPONSE, _SNOOP),
    ):
        column[request_pos], column[request_pos + 1], column[snoop_pos] = request, response, snoop
    return PacketBatch(
        injection_time=injection,
        source=source,
        destination=destination,
        class_code=class_code,
        # Left at 0 so the network sizes packets from its own link width,
        # exactly like the object stream.
        flits=np.zeros(size, dtype=np.int64),
        packet_id=np.arange(size, dtype=np.int64),
    )
