"""Bilateral core-to-LLC traffic generation.

Scale-out workloads exhibit a *core-to-cache bilateral* access pattern
(Section 4.2.1): cores send requests to LLC banks and receive responses; there is
essentially no core-to-core traffic, and only ~2.7 % of LLC accesses trigger a
snoop.  :func:`bilateral_injection_rate` turns a workload profile and a per-core
IPC into an injection rate, and :func:`generate_bilateral_batch` turns that rate
into a :class:`~repro.noc.fastpath.PacketBatch` of request/response (and
occasional snoop) packets for the NoC simulator.
"""

from __future__ import annotations

import math

import numpy as np

from repro.noc.fastpath import CLASS_CODES, MessageClass, PacketBatch, batch_column_types
from repro.perfmodel.analytic import require_count
from repro.workloads.profile import WorkloadProfile

_REQUEST = CLASS_CODES[MessageClass.DATA_REQUEST]
_SNOOP = CLASS_CODES[MessageClass.SNOOP_REQUEST]
_RESPONSE = CLASS_CODES[MessageClass.RESPONSE]


def bilateral_injection_rate(
    workload: WorkloadProfile, per_core_ipc: float, core_type: str = "ooo"
) -> float:
    """LLC accesses injected per core per cycle (the traffic's rate law).

    The single definition shared by the study's memoized batch path, the
    benchmark unit counter and the tests -- change it here and every consumer
    stays in lockstep.

    Raises:
        ValueError: ``per_core_ipc`` is not positive and finite.
    """
    if not 0 < per_core_ipc < math.inf:
        raise ValueError(f"per_core_ipc must be positive and finite, got {per_core_ipc!r}")
    apki = workload.llc_accesses_per_kilo_instruction(core_type)
    return apki / 1000.0 * per_core_ipc


def generate_bilateral_batch(
    core_nodes: "list[int]",
    llc_nodes: "list[int]",
    injection_rate: float,
    snoop_fraction: float,
    seed: int,
    duration_cycles: int,
    active_cores: "int | None" = None,
) -> PacketBatch:
    """The bilateral traffic pattern as a :class:`PacketBatch`.

    Each LLC access produces a request packet from the core to a (uniformly
    chosen) LLC node and a response packet back after a nominal bank service
    delay; a ``snoop_fraction`` of accesses additionally produce a snoop
    packet from the LLC node to another core.  The inputs are scalars and
    node lists, so callers can memoize batches by them.  Each core draws, in
    turn, its access count (Poisson), sorted injection times, LLC targets,
    snoop flags and one victim per snoop; the packets of every core are then
    laid out in one pass, in the narrow columns
    :func:`~repro.noc.fastpath.batch_column_types` gives the largest node id.

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
    llcs = np.array(llc_nodes, dtype=np.int64)
    max_node = int(max(np.abs(llcs).max(), np.abs(cores).max(initial=0)))
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
    types = batch_column_types(max_node, size)
    injection, source, destination, class_code = (
        np.empty(size, dtype=types[name])
        for name in ("injection_time", "source", "destination", "class_code")
    )
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
        # Left at 0 so the network sizes packets from its own link width.
        flits=np.zeros(size, dtype=types["flits"]),
        packet_id=np.arange(size, dtype=types["packet_id"]),
    )
