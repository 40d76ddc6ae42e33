"""Per-event trace generation: the oracle for ``SyntheticTraceGenerator.events_for_core``.

Draws the event classes, gaps, write and sharing flags in bulk, then picks
each reference's address with one scalar ``rng.integers`` call per event and
builds one :class:`TraceEvent` per reference.  The package makes the same
draws from the same stream with one array-bound ``integers`` call and returns
the trace as columns; the tests hold the two to identical events and to the
same position in the random stream afterwards.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.traces import LINE_BYTES, WRITE_FRACTION, TraceEvent


def events_per_event(generator, core_id: int, instructions: int):
    """``(events, rng)``: ``generator``'s trace for ``core_id`` and the spent stream."""
    rng = np.random.default_rng((generator.seed, core_id, generator.cores, 0xC0DE))
    p_instr = generator.l1i_miss_per_instr
    p_dataset = generator.dataset_per_instr
    p_capturable = generator.capturable_per_instr
    p_shared_small = generator.shared_small_per_instr
    p_total = p_instr + p_dataset + p_capturable + p_shared_small
    if p_total <= 0:
        return [], rng

    n_events = max(1, int(round(instructions * p_total)))
    gap_mean = instructions / n_events

    kinds = rng.choice(
        ["instructions", "dataset", "capturable", "shared_small"],
        size=n_events,
        p=[p_instr / p_total, p_dataset / p_total, p_capturable / p_total, p_shared_small / p_total],
    )
    gaps = rng.poisson(gap_mean, size=n_events)
    writes = rng.random(n_events) < WRITE_FRACTION
    shared_draw = rng.random(n_events) < generator.workload.snoop_fraction

    events = []
    for kind, gap, is_write, is_shared in zip(kinds, gaps, writes, shared_draw):
        is_instruction = kind == "instructions"
        if is_instruction:
            region = generator.regions["instructions"]
            is_write = False
            is_shared = False
        elif is_shared:
            region = generator.regions["shared_hot"]
        else:
            region = generator.regions[str(kind)]
        lines = max(1, region.size_bytes // LINE_BYTES)
        events.append(
            TraceEvent(
                instruction_gap=int(max(1, gap)),
                address=region.base + int(rng.integers(0, lines)) * LINE_BYTES,
                is_instruction=bool(is_instruction),
                is_write=bool(is_write),
                shared=bool(is_shared),
            )
        )
    return events, rng
