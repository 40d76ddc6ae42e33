"""Packet-level NoC timing simulation.

The network model routes each packet along its topology path, charging router
pipeline delay, link traversal delay, serialization delay, and contention delay.
Contention is modelled at output-port granularity: each directed link can accept
one flit per cycle, so a packet occupies the link for ``flits`` cycles and later
packets queue behind it.  This captures the first-order effects the paper relies
on (zero-load latency differences between topologies, serialization penalties of
narrow links, mild queueing at hot spots) without simulating individual flits and
credits.

The network compiles the topology into flat arrays once and delivers traffic
one :class:`~repro.noc.fastpath.PacketBatch` at a time through
:meth:`NocNetwork.run_batch` and :mod:`repro.noc.fastpath`'s kernels; link
state persists across batches.  ``tests/test_noc_fastpath.py`` holds it
bit-identical to a per-packet graph walk kept in
``tests/oracles/noc_reference.py``.

Latency statistics are maintained as running (sum, count) pairs updated at
delivery time, so collection is O(1) memory per message class.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.noc.fastpath import (
    CLASS_ORDER,
    BatchResult,
    MessageClass,
    PacketBatch,
    compile_topology,
    process_batch,
    sequential_sum,
)
from repro.noc.topology import NocTopology


@dataclass(frozen=True)
class NocConfig:
    """Operating parameters of the simulated network.

    Attributes:
        link_width_bits: flit width; response packets carrying a 64-byte line are
            ``512 / link_width_bits + 1`` flits long.
        vcs_per_port: virtual channels per port (per message class); only used by
            the area/power models, the timing model resolves deadlock by
            construction (responses are consumed unconditionally).
        buffer_flits_per_vc: buffer depth per VC (area/power models).
    """

    link_width_bits: int = 128
    vcs_per_port: int = 3
    buffer_flits_per_vc: int = 5

    def flits_for(self, message_class: MessageClass) -> int:
        """Packet length in flits for ``message_class`` at this link width."""
        if message_class is MessageClass.RESPONSE:
            payload_bits = 64 * 8
        else:
            payload_bits = 0
        return 1 + -(-payload_bits // self.link_width_bits)  # ceil division


class NocNetwork:
    """Packet-level timing model over a :class:`NocTopology`.

    Args:
        topology: the routed topology packets travel over.
        config: operating parameters (link width, VCs).
    """

    def __init__(self, topology: NocTopology, config: "NocConfig | None" = None):
        self.topology = topology
        self.config = config or NocConfig()
        # Running statistics (O(1) memory per class), updated at delivery time.
        self._delivered_count = 0
        self._latency_sum = 0.0
        self._hops_sum = 0
        self._class_sums: "dict[MessageClass, list]" = {}
        self._compiled = compile_topology(topology)
        self._next_free: "list[float]" = [0.0] * self._compiled.num_links
        self._flits_carried: "list[int]" = [0] * self._compiled.num_links

    # ----------------------------------------------------------------- timing
    def run_batch(self, batch: PacketBatch) -> BatchResult:
        """Deliver a whole :class:`PacketBatch` through the array kernel.

        Statistics accumulate into running sums in delivery order, seeded with
        the totals of earlier batches, so any split of the traffic into
        batches gives the same bits as a per-packet walk.

        Raises:
            ValueError: a column holds an out-of-range value (see
                :func:`~repro.noc.fastpath.process_batch`).
        """
        from repro.obs.tracer import get_tracer

        tracer = get_tracer()
        if tracer.enabled:
            tracer.counter("noc.batches").add()
            tracer.counter("noc.packets").add(len(batch))
        result = process_batch(
            self._compiled, batch, self.config, self._next_free, self._flits_carried
        )
        # Sequential sums in delivery order, *seeded with the current running
        # sum*, match per-packet accumulation bit for bit even across
        # multiple batches.
        ordered_latency = result.latency[result.order]
        ordered_codes = result.class_code[result.order]
        self._latency_sum = sequential_sum(ordered_latency, initial=self._latency_sum)
        self._hops_sum += int(result.hops.sum())
        self._delivered_count += len(batch)
        for code, cls in enumerate(CLASS_ORDER):
            mask = ordered_codes == code
            count = int(mask.sum())
            if count == 0:
                continue
            sums = self._class_sums.setdefault(cls, [0.0, 0])
            sums[0] = sequential_sum(ordered_latency[mask], initial=sums[0])
            sums[1] += count
        return result

    # ------------------------------------------------------------------ stats
    def average_latency(self) -> float:
        """Average end-to-end packet latency."""
        if self._delivered_count == 0:
            return 0.0
        return self._latency_sum / self._delivered_count

    def average_latency_by_class(self) -> "dict[MessageClass, float]":
        """Average latency per message class (running sums; O(1) memory)."""
        return {cls: sums[0] / sums[1] for cls, sums in self._class_sums.items()}

    def average_hops(self) -> float:
        """Average hop count of delivered packets."""
        if self._delivered_count == 0:
            return 0.0
        return self._hops_sum / self._delivered_count

    def total_flit_hops(self) -> int:
        """Total flit-hops carried, summed over every link."""
        return sum(self._flits_carried)

    def max_link_utilization(self, elapsed_cycles: float) -> float:
        """Utilization of the busiest link (congestion indicator)."""
        if elapsed_cycles <= 0 or not self._flits_carried:
            return 0.0
        # Busy cycles equal flits carried: every traversal occupies the link
        # for exactly one cycle per flit.
        busiest = float(max(self._flits_carried))
        return min(1.0, busiest / elapsed_cycles)

