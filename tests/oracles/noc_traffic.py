"""Per-core bilateral traffic layout: the oracle for ``generate_bilateral_batch``.

:func:`reference_bilateral_batch` builds the batch one core at a time: each
core draws its access count, injection times, LLC targets and snoop flags,
then one snoop victim per scalar draw, and lays out its own block of
(request, response, optional snoop) packets before the blocks are stacked.
The package draws the same values in the same order but takes each core's
victims in one draw and lays out every core's packets in one vectorised pass;
the tests hold the two to byte-equal columns.
"""

from __future__ import annotations

import numpy as np

from repro.noc.fastpath import CLASS_CODES, MessageClass, PacketBatch

_REQUEST = CLASS_CODES[MessageClass.DATA_REQUEST]
_SNOOP = CLASS_CODES[MessageClass.SNOOP_REQUEST]
_RESPONSE = CLASS_CODES[MessageClass.RESPONSE]


def reference_bilateral_batch(
    core_nodes: "list[int]",
    llc_nodes: "list[int]",
    injection_rate: float,
    snoop_fraction: float,
    seed: int,
    duration_cycles: int,
    active_cores: "int | None" = None,
) -> PacketBatch:
    """The bilateral traffic pattern, laid out core block by core block."""
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
        # One scalar draw per victim, in arrival order: ``rng.integers(n)`` is
        # the draw ``rng.choice(cores)`` makes.
        victims = np.array(
            [cores[rng.integers(len(cores))] for _ in range(num_snoops)], dtype=np.int64
        )
        if count == 0:
            continue

        # Access j emits its request at block slot 2*j + (snoops before j),
        # its response right after, and its snoop (if any) right after that.
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
                flits=np.zeros(block_len, dtype=np.int64),
                packet_id=packet_base + np.arange(block_len, dtype=np.int64),
            )
        )
        packet_base += block_len
    return concatenate(blocks)


def concatenate(batches: "list[PacketBatch]") -> PacketBatch:
    """Stack ``batches`` into one, in order (an empty list gives an empty batch)."""
    if not batches:
        return PacketBatch(*(np.empty(0, dtype=d) for d in (np.float64,) + (np.int64,) * 5))
    return PacketBatch(
        *(
            np.concatenate([getattr(b, column) for b in batches])
            for column in (
                "injection_time",
                "source",
                "destination",
                "class_code",
                "flits",
                "packet_id",
            )
        )
    )
