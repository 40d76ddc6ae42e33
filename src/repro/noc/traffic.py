"""Bilateral core-to-LLC traffic generation.

Scale-out workloads exhibit a *core-to-cache bilateral* access pattern
(Section 4.2.1): cores send requests to LLC banks and receive responses; there is
essentially no core-to-core traffic, and only ~2.7 % of LLC accesses trigger a
snoop.  The traffic generator turns a workload profile and a per-core IPC into a
stream of request/response (and occasional snoop) packets for the NoC simulator.
"""

from __future__ import annotations

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
        if per_core_ipc <= 0:
            raise ValueError("per_core_ipc must be positive")
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
    generator object.
    """
    if duration_cycles <= 0:
        raise ValueError("duration_cycles must be positive")
    rng = np.random.default_rng((seed, 0xABCD, duration_cycles))
    cores = core_nodes
    if active_cores is not None:
        cores = cores[:active_cores]
    llcs = llc_nodes
    bank_service = 4.0
    blocks: "list[PacketBatch]" = []
    packet_base = 0
    for core in cores:
        expected = injection_rate * duration_cycles
        count = int(rng.poisson(expected))
        times = np.sort(rng.uniform(0, duration_cycles, size=count))
        targets = rng.choice(llcs, size=count).astype(np.int64)
        snoops = rng.random(count) < snoop_fraction
        num_snoops = int(snoops.sum())
        # Victims draw one at a time, in arrival order, matching the
        # historical per-packet stream consumption.  ``rng.integers(n)`` is
        # the draw ``rng.choice(cores)`` makes, without converting the list
        # to an array on every call.
        victims = np.array(
            [cores[rng.integers(len(cores))] for _ in range(num_snoops)], dtype=np.int64
        )
        if count == 0:
            continue

        # Interleaved emission positions: access j emits its request at
        # slot 2*j + (snoops before j), its response right after, and its
        # snoop (if any) right after that.
        snoops_before = np.cumsum(snoops) - snoops
        request_pos = 2 * np.arange(count, dtype=np.int64) + snoops_before
        snoop_pos = request_pos[snoops] + 2
        block_len = 2 * count + num_snoops

        injection = np.empty(block_len, dtype=np.float64)
        source = np.empty(block_len, dtype=np.int64)
        destination = np.empty(block_len, dtype=np.int64)
        class_code = np.empty(block_len, dtype=np.int64)

        responses_at = times + bank_service
        injection[request_pos] = times
        injection[request_pos + 1] = responses_at
        source[request_pos] = core
        source[request_pos + 1] = targets
        destination[request_pos] = targets
        destination[request_pos + 1] = core
        class_code[request_pos] = _REQUEST
        class_code[request_pos + 1] = _RESPONSE
        if num_snoops:
            injection[snoop_pos] = responses_at[snoops]
            source[snoop_pos] = targets[snoops]
            destination[snoop_pos] = victims
            class_code[snoop_pos] = _SNOOP

        blocks.append(
            PacketBatch(
                injection_time=injection,
                source=source,
                destination=destination,
                class_code=class_code,
                # Left at 0 so the network sizes packets from its own link
                # width, exactly like the object stream.
                flits=np.zeros(block_len, dtype=np.int64),
                packet_id=packet_base + np.arange(block_len, dtype=np.int64),
            )
        )
        packet_base += block_len
    return PacketBatch.concatenate(blocks)
