"""Structure-of-arrays delivery of NoC traffic: the packet-level simulator's kernel.

The model charges every hop a router pipeline, a wait for the link and a link
latency, then the destination pipeline and the tail serialization (see
:mod:`repro.noc.network`).  Walking that one packet at a time -- a successor
lookup, a dict probe and a link-state object per hop -- is what the per-packet
oracle ``tests/oracles/noc_reference.py`` does; this module keeps the *model*
and changes the *representation*:

* :class:`CompiledTopology` flattens a :class:`~repro.noc.topology.NocTopology`
  into integer arrays -- a dense link index (:meth:`NocTopology.links` order),
  each link's router pipeline and latency, and flat route tables for every
  (source, destination) pair a batch has used -- so the kernels touch no
  graphs and no dicts of objects.
* :class:`PacketBatch` carries a whole traffic batch as parallel numpy arrays
  (injection time, source, destination, message-class code, flits, packet
  id); it is the only form in which traffic reaches the network.
* :func:`process_batch` delivers the batch with a **link-ordered wavefront**
  when the channel dependency graph (CDG) of the compiled routes is acyclic --
  as it is for XY mesh routing, the flattened butterfly's row/column routing
  and NOC-Out's trees.  Every (packet, hop) becomes one entry; the entries are
  grouped by link, links ordered by CDG level, and each level's links solve
  their whole contention history in numpy once the levels upstream are done.
  A cyclic CDG (a faulted mesh's weighted shortest paths) falls back to the
  per-packet hop loop over the same route tables.  Both return per-packet
  arrival times and update the per-link occupancy counters.

Bit-exactness contract: the kernels perform *the same floating-point
operations* as the reference walk -- per-hop pipeline add, ``max`` against
the link's next-free time, link-latency add, then destination pipeline and
serialization adds as two separate additions.  The hop loop does them in the
same order.  The wavefront serves each link's packets in delivery order, as
the loop does, under ``s_k = max(a_k, s_{k-1} + flits_{k-1})``: a busy
period's head starts at its arrival and every later member at the previous
start plus its flits, filled with sequential float adds.  The heads are
guessed, then recomputed from the exact starts until the set no longer
changes; a self-consistent head set makes every ``max`` decide as the loop's
does, so the starts equal the loop's bit for bit.  Statistics that sum floats
use ``np.cumsum(...)[-1]``, whose strictly sequential accumulation matches a
left-to-right Python ``sum`` bit for bit (``np.sum`` does not: it sums
pairwise).  The equivalence suite in ``tests/test_noc_fastpath.py`` holds
both kernels to exact equality with the reference path.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from repro.noc.topology import NocTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.noc.network import NocConfig


class MessageClass(enum.Enum):
    """Coherence message classes (three classes guarantee protocol deadlock freedom).

    NOC-Out's reduction trees only ever carry requests and responses; snoop
    requests originate at the directory nodes in the LLC region (Section 4.2.2).
    """

    DATA_REQUEST = "data_request"
    SNOOP_REQUEST = "snoop_request"
    RESPONSE = "response"


#: Stable integer codes for the message classes (array representation).
CLASS_ORDER: "tuple[MessageClass, ...]" = (
    MessageClass.DATA_REQUEST,
    MessageClass.SNOOP_REQUEST,
    MessageClass.RESPONSE,
)
CLASS_CODES: "dict[MessageClass, int]" = {cls: i for i, cls in enumerate(CLASS_ORDER)}


def narrow_int(high: int, floor: type = np.int8) -> type:
    """The narrowest signed integer type, ``floor`` or wider, that holds
    ``-high .. high``."""
    for dtype in (np.int8, np.int16, np.int32):
        if np.dtype(dtype).itemsize >= np.dtype(floor).itemsize and high <= np.iinfo(dtype).max:
            return dtype
    return np.int64


def batch_column_types(max_node: int, count: int) -> "dict[str, type]":
    """The column types of a generated :class:`PacketBatch` of ``count``
    packets whose node ids are at most ``max_node`` in magnitude.

    The one place the batch format's widths are decided: node ids are int16
    while they fit (any topology of up to 32,767 nodes), else int32; class
    codes and the generator's all-zero flits are int8; packet ids are int32
    while ``count`` fits; injection times stay float64.  That is 18 bytes a
    packet on every topology the studies build, against 48 with int64 columns.
    """
    node = narrow_int(max_node, np.int16)
    return {
        "injection_time": np.float64,
        "source": node,
        "destination": node,
        "class_code": np.int8,
        "flits": np.int8,
        "packet_id": narrow_int(count - 1, np.int32),
    }


@dataclass(frozen=True)
class PacketBatch:
    """A traffic batch as a structure of arrays (one row per packet).

    :func:`~repro.noc.traffic.generate_bilateral_batch` emits the narrow
    columns of :func:`batch_column_types`; :func:`process_batch` accepts any
    integer type in the integer columns (tests and oracles build int64
    batches) and does its id arithmetic in a type wide enough for the
    topology.

    Attributes:
        injection_time: injection cycle per packet (float64).
        source: source node id per packet (int16 when generated).
        destination: destination node id per packet (int16 when generated).
        class_code: message-class code per packet (see ``CLASS_CODES``; int8
            when generated).
        flits: packet length in flits; 0 means "sized by the network config"
            (:meth:`~repro.noc.network.NocConfig.flits_for` of the class;
            int8 zeros when generated).
        packet_id: unique id per packet (the run order tie-breaker; int32
            when generated).
    """

    injection_time: np.ndarray
    source: np.ndarray
    destination: np.ndarray
    class_code: np.ndarray
    flits: np.ndarray
    packet_id: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.injection_time)
        for name in ("source", "destination", "class_code", "flits", "packet_id"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"PacketBatch column {name!r} has mismatched length")

    def __len__(self) -> int:
        return len(self.injection_time)


def _cycle_table(cycles: "list[int]") -> np.ndarray:
    """``cycles`` as int16 when every value fits, as on any healthy topology,
    else as int32 or int64 (a heavily degraded link)."""
    return np.array(cycles, dtype=narrow_int(max(cycles, default=0), np.int16))


class CompiledTopology:
    """A :class:`NocTopology` flattened into integer arrays for the kernel.

    Link indices follow :meth:`NocTopology.links`; a link's router pipeline
    (the router it leaves) and latency are ``link_pipeline`` and
    ``link_latency``.  Routes are compiled lazily: :meth:`compile_pairs` adds
    only the pairs a batch uses to the dense tables -- ``route_offset`` /
    ``route_length`` / ``route_tail`` per ``source * num_nodes + destination``
    pair, and ``hop_link`` / ``hop_key`` (the link's ``link_key``) per flat
    hop -- and the underlying topology's own route cache keeps recompilation
    across networks cheap.  It also keeps the CDG of those routes: each link's
    ``link_level`` and the ``acyclic`` flag.
    """

    def __init__(self, topology: NocTopology):
        self.topology = topology
        links = topology.links()
        self.num_links = len(links)
        self.num_nodes = topology.num_nodes
        # Dense route tables, indexed by ``source * num_nodes + destination``
        # (a length of -1 marks a pair not compiled yet) and by flat hop
        # position ``route_offset + hop``.
        pairs = self.num_nodes * self.num_nodes
        #: the integer type of pair keys (and of the node ids multiplied into them).
        self.pair_type = narrow_int(pairs - 1, np.int32)
        self._link_of = np.full(pairs, -1, dtype=np.int32)
        self._link_of[[a * self.num_nodes + b for a, b in links]] = np.arange(self.num_links)
        self.link_latency = _cycle_table([topology.link(a, b).latency_cycles for a, b in links])
        pipelines = topology.router_pipeline_cycles
        self._node_pipeline = _cycle_table(
            [pipelines.get(node, 1) for node in range(self.num_nodes)]
        )
        #: the pipeline of the router each link leaves.
        self.link_pipeline = self._node_pipeline[[a for a, _ in links]]
        self.route_offset = np.zeros(pairs, dtype=np.int32)
        self.route_length = np.full(pairs, -1, dtype=np.int16)
        self.route_tail = np.zeros(pairs, dtype=self._node_pipeline.dtype)
        self.hop_link = np.empty(0, dtype=np.int32)
        # Channel dependency graph (CDG) of the compiled routes: an edge
        # ``(l1, l2)`` means some route leaves link l1 onto link l2.
        self._dependencies: "set[int]" = set()
        self.acyclic = True
        self.link_level = np.zeros(self.num_links, dtype=np.int16)
        self.num_levels = 1
        key_type = narrow_int(self.num_links, np.int16)
        #: each link's rank in (level, link) order -- a narrow sort key -- and
        #: its inverse, the link holding each rank.
        self.link_key = np.arange(self.num_links, dtype=key_type)
        self.links_by_key = np.arange(self.num_links, dtype=np.int32)
        self.hop_key = self.link_key[self.hop_link]
        #: the first rank of each level, then ``num_links``.
        self.level_start_key = np.array([0, self.num_links], dtype=np.int32)

    def compile_pairs(self, pair_keys: np.ndarray) -> None:
        """Add the routes of ``pair_keys`` (``source * num_nodes + destination``)
        to the dense tables, skipping pairs already there.

        The CDG levels are recomputed only when a new route adds a link-to-link
        dependency the tables did not have.
        """
        wanted = np.zeros(len(self.route_length), dtype=bool)
        wanted[pair_keys] = True
        missing = np.flatnonzero(wanted & (self.route_length < 0))
        if not len(missing):
            return
        num_nodes = self.num_nodes
        paths = [self.topology.route(*divmod(pair, num_nodes)) for pair in missing.tolist()]
        sizes = np.fromiter(map(len, paths), dtype=np.int32, count=len(paths))
        nodes = np.fromiter(
            chain.from_iterable(paths), dtype=self.pair_type, count=int(sizes.sum())
        )
        ends = np.cumsum(sizes)
        # Every node but a path's last one starts a hop.
        departs = np.ones(len(nodes), dtype=bool)
        departs[ends - 1] = False
        departs = np.flatnonzero(departs)
        links = self._link_of[nodes[departs] * num_nodes + nodes[departs + 1]]
        if len(links) and links.min() < 0:
            bad = departs[np.argmax(links < 0)]
            raise KeyError((int(nodes[bad]), int(nodes[bad + 1])))
        lengths = sizes - 1
        self.route_offset[missing] = len(self.hop_link) + ends - sizes - np.arange(len(paths))
        self.route_length[missing] = lengths
        self.route_tail[missing] = self._node_pipeline[nodes[ends - 1]]
        self.hop_link = np.concatenate((self.hop_link, links))
        # Consecutive hops of one route form a CDG edge, keyed l1 * links + l2:
        # hop i and i + 1 belong to one route when their path nodes are adjacent.
        within = departs[1:] == departs[:-1] + 1
        edges = links[:-1].astype(np.int64) * self.num_links + links[1:]
        known = len(self._dependencies)
        self._dependencies.update(edges[within].tolist())
        if self.acyclic and len(self._dependencies) > known:
            self._relevel()
        self.hop_key = self.link_key[self.hop_link]

    def _relevel(self) -> None:
        """Recompute each link's CDG level and the ``acyclic`` flag.

        Kahn's algorithm, one generation at a time: a link's level is the
        length of the longest dependency chain ending at it, so every CDG edge
        points to a higher level.  The CDG is acyclic exactly when every link
        gets a level.
        """
        edges = np.fromiter(self._dependencies, dtype=np.int64, count=len(self._dependencies))
        source, target = np.divmod(edges, self.num_links)
        waiting = np.bincount(target, minlength=self.num_links)
        level = np.zeros(self.num_links, dtype=np.int16)
        frontier = np.flatnonzero(waiting == 0)
        depth = placed = 0
        while len(frontier):
            level[frontier] = depth
            placed += len(frontier)
            depth += 1
            leaving = np.zeros(self.num_links, dtype=bool)
            leaving[frontier] = True
            released = np.bincount(target[leaving[source]], minlength=self.num_links)
            waiting -= released
            frontier = np.flatnonzero((released > 0) & (waiting == 0))
        self.acyclic = placed == self.num_links
        self.link_level = level
        self.num_levels = max(depth, 1)
        self.links_by_key = np.argsort(level, kind="stable").astype(np.int32)
        self.link_key[self.links_by_key] = np.arange(self.num_links, dtype=self.link_key.dtype)
        self.level_start_key = np.searchsorted(
            level[self.links_by_key], np.arange(self.num_levels + 1)
        ).astype(np.int32)


def compile_topology(topology: NocTopology) -> CompiledTopology:
    """The shared :class:`CompiledTopology` for ``topology`` (one per instance).

    Cached on the topology object itself so every network over the same
    topology -- and every sweep point in the same process -- reuses the
    compiled routes instead of re-flattening them.
    """
    compiled = topology.__dict__.get("_fastpath_compiled")
    if compiled is None:
        compiled = CompiledTopology(topology)
        topology.__dict__["_fastpath_compiled"] = compiled
    return compiled


@dataclass
class BatchResult:
    """Per-packet outcome of one :func:`process_batch` call (batch order).

    Times are float64; ``hops`` is the route tables' int16, ``flits`` the
    narrowest type holding the batch's flit counts, and ``order`` int32 while
    the batch's indices fit.
    """

    arrival_time: np.ndarray
    latency: np.ndarray
    hops: np.ndarray
    flits: np.ndarray
    class_code: np.ndarray
    #: indices that sort the batch by (injection_time, packet_id) -- the
    #: delivery order, which sequential-sum statistics must follow.
    order: np.ndarray

    def __len__(self) -> int:
        return len(self.arrival_time)


def flit_table(config: "NocConfig") -> np.ndarray:
    """Flits per message-class code at ``config``'s link width."""
    return np.array([config.flits_for(cls) for cls in CLASS_ORDER], dtype=np.int64)


def process_batch(
    compiled: CompiledTopology,
    batch: PacketBatch,
    config: "NocConfig",
    next_free: "list[float]",
    flits_carried: "list[int]",
) -> BatchResult:
    """Deliver ``batch`` over ``compiled``, mutating the link-state lists.

    ``next_free`` and ``flits_carried`` are the network's persistent per-link
    occupancy state (one slot per link, :meth:`NocTopology.links` order); they
    are updated in place so repeated batches see earlier traffic.

    The integer columns may be of any integer type.  Pair keys are built in
    ``compiled.pair_type``, so narrow node ids cannot overflow them, and the
    per-packet and per-hop temporaries are as narrow as their values allow.

    Raises:
        ValueError: an integer column holds non-integers, a source or
            destination is not a node id of the topology, a class code is not
            one of ``CLASS_ORDER``'s, or a flit count is negative (the message
            names the column).
    """
    n = len(batch)
    num_nodes = compiled.num_nodes
    for name in ("source", "destination", "class_code", "flits"):
        dtype = getattr(batch, name).dtype
        if dtype.kind not in "iu":
            raise ValueError(f"PacketBatch column {name!r} holds {dtype}, not integers")
    for name, what, high in (
        ("source", "node ids", num_nodes - 1),
        ("destination", "node ids", num_nodes - 1),
        ("class_code", "class codes", len(CLASS_ORDER) - 1),
    ):
        column = getattr(batch, name)
        if n and (column.min() < 0 or column.max() > high):
            raise ValueError(f"PacketBatch column {name!r} holds {what} outside 0..{high}")
    if n and batch.flits.min() < 0:
        raise ValueError("PacketBatch column 'flits' holds negative flit counts")
    # Flits per packet, in the narrowest type that holds them: the column's
    # count where it sets one, else the config's size for the class.
    table = flit_table(config)
    flit_type = narrow_int(max(int(table.max()), int(batch.flits.max(initial=0))))
    resolved = table.astype(flit_type)[batch.class_code]
    np.copyto(resolved, batch.flits, where=batch.flits > 0)
    # Delivery order: injection time, ties broken by packet id (lexsort keys
    # are significance-last, and both sorts are stable) -- identical to the
    # reference path's sorted(key=(injection_time, packet_id)).
    order = np.lexsort((batch.packet_id, batch.injection_time))
    order = order.astype(narrow_int(n - 1, np.int32), copy=False)
    pair_key = batch.source.astype(compiled.pair_type) * num_nodes
    pair_key += batch.destination
    compiled.compile_pairs(pair_key)
    if compiled.acyclic:
        arrivals = _wavefront(compiled, batch, resolved, order, pair_key, next_free, flits_carried)
    else:
        arrivals = _hop_loop(compiled, batch, resolved, order, pair_key, next_free, flits_carried)
    return BatchResult(
        arrival_time=arrivals,
        latency=arrivals - batch.injection_time,
        hops=compiled.route_length[pair_key],
        flits=resolved,
        class_code=batch.class_code,
        order=order,
    )


def _hop_loop(
    compiled: CompiledTopology,
    batch: PacketBatch,
    resolved: np.ndarray,
    order: np.ndarray,
    pair_key: np.ndarray,
    next_free: "list[float]",
    flits_carried: "list[int]",
) -> np.ndarray:
    """Arrival times by replaying every hop of every packet in delivery order
    (the kernel for topologies whose compiled-route CDG is cyclic)."""
    n = len(batch)
    # Address routes by a small per-batch integer code so the packet loop
    # never touches a dict or builds a tuple key.  ``compile_pairs`` has put
    # every pair in the tables; a hop is its link's (pipeline, link, latency).
    unique_pairs, pair_code = np.unique(pair_key, return_inverse=True)
    link_hops = list(
        zip(
            compiled.link_pipeline.tolist(),
            range(compiled.num_links),
            compiled.link_latency.tolist(),
        )
    )
    hops_by_code = [
        [link_hops[link] for link in compiled.hop_link[offset : offset + length].tolist()]
        for offset, length in zip(
            compiled.route_offset[unique_pairs].tolist(),
            compiled.route_length[unique_pairs].tolist(),
        )
    ]
    tail_by_code = compiled.route_tail[unique_pairs].tolist()

    injections = batch.injection_time.tolist()
    codes = pair_code.tolist()
    flits_list = resolved.tolist()
    arrivals = [0.0] * n

    for index in order.tolist():
        time = injections[index]
        flits = flits_list[index]
        code = codes[index]
        for pipeline, link, latency in hops_by_code[code]:
            time += pipeline
            free = next_free[link]
            start = time if time >= free else free
            next_free[link] = start + flits
            flits_carried[link] += flits
            time = start + latency
        # Same two separate additions as the reference path (float addition is
        # not associative; the order is part of the bit-exactness contract).
        time += tail_by_code[code]
        time += flits - 1
        arrivals[index] = time
    return np.array(arrivals, dtype=np.float64)


def _wavefront(
    compiled: CompiledTopology,
    batch: PacketBatch,
    resolved: np.ndarray,
    order: np.ndarray,
    pair_key: np.ndarray,
    next_free: "list[float]",
    flits_carried: "list[int]",
) -> np.ndarray:
    """Arrival times by solving each link's contention history at once, link
    level by link level (the kernel for acyclic CDGs).

    One entry per (packet, hop) is laid out packet-major in delivery order,
    then stably grouped by (level, link), so each link's entries stay in
    delivery order -- the order the hop loop would have served them in.  A
    route's hops climb strictly in level, so a level holds at most one hop of
    each packet, and the packet's clock ``now`` (its injection time, then the
    last hop's ``start + latency``) is final when the level is served.
    """
    n = len(batch)
    pair_o = pair_key[order]
    tail_o = compiled.route_tail[pair_o]
    length_o = compiled.route_length[pair_o].astype(np.int32)
    first_o = np.cumsum(length_o, dtype=np.int32) - length_o
    total = int(length_o.sum())
    # Flat hop position of every entry: its route's offset plus the hop.
    hop = np.repeat(compiled.route_offset[pair_o] - first_o, length_o)
    hop += np.arange(total, dtype=np.int32)
    key = compiled.hop_key[hop]
    del pair_o, hop, first_o
    per_key = np.bincount(key, minlength=compiled.num_links)
    # Group the entries by key, each key's in delivery order, by sorting the
    # codes ``key * n + packet``: a packet crosses a link once, so the codes
    # are distinct and any sort of them is the stable grouping.  The packet
    # (delivery-order index) of every entry is then the code modulo ``n``.
    who = key.astype(narrow_int(compiled.num_links * n, np.int32))
    del key
    who *= n
    who += np.repeat(np.arange(n, dtype=who.dtype), length_o)
    del length_o
    who.sort()
    who %= max(n, 1)
    flits_o = resolved[order]
    flits = flits_o[who]
    now = batch.injection_time[order]

    # One segment per link that carries traffic, in grouped order; a hop's
    # pipeline and latency are its link's.
    key_end = np.cumsum(per_key)
    used = per_key > 0
    segment_link = compiled.links_by_key[used]
    segment_size = per_key[used]
    segment_first = (key_end - per_key)[used]
    level_bounds = np.concatenate(([0], key_end))[compiled.level_start_key].tolist()
    segment_bounds = np.searchsorted(segment_first, level_bounds).tolist()
    # No link queues more flits than the whole batch carries.
    queue_type = narrow_int(int(resolved.max(initial=0)) * total, np.int32)
    free = np.array(next_free, dtype=np.float64)
    carried = np.empty(len(segment_link), dtype=np.int64)
    for level in range(compiled.num_levels):
        lo, hi = level_bounds[level], level_bounds[level + 1]
        if lo == hi:
            continue
        # numpy gathers and scatters with intp indices several times faster.
        packets, level_flits = who[lo:hi].astype(np.intp), flits[lo:hi]
        first, last = segment_bounds[level], segment_bounds[level + 1]
        links = segment_link[first:last]
        sizes = segment_size[first:last]
        firsts = segment_first[first:last] - lo
        start = _serve(
            now[packets] + np.repeat(compiled.link_pipeline[links], sizes),
            level_flits,
            firsts,
            sizes,
            free[links],
            queue_type,
        )
        now[packets] = start + np.repeat(compiled.link_latency[links], sizes)
        # A link is free again once its last entry's flits have passed.
        ends = firsts + sizes - 1
        free[links] = start[ends] + level_flits[ends]
        carried[first:last] = np.add.reduceat(level_flits, firsts, dtype=np.int64)
    # Release the per-entry arrays (and the loop's views of them).
    who = flits = packets = level_flits = None
    next_free[:] = free.tolist()
    for link, count in zip(segment_link.tolist(), carried.tolist()):
        flits_carried[link] += count

    # Arrival: the clock after the last hop (or the injection time of a
    # zero-hop packet) plus the tail pipeline, then the serialization add --
    # the same separate additions as the hop loop.
    now += tail_o
    now += flits_o - 1
    arrivals = np.empty(n, dtype=np.float64)
    arrivals[order] = now
    return arrivals


def _serve(
    arrive: np.ndarray,
    flits: np.ndarray,
    firsts: np.ndarray,
    sizes: np.ndarray,
    free: np.ndarray,
    queue_type: type,
) -> np.ndarray:
    """Start times of one level's entries under ``s_k = max(a_k, s_{k-1} +
    flits_{k-1})`` on each link.

    The level holds one segment per link (first index ``firsts``, length
    ``sizes``), seeded with the link's ``free`` time.  A busy period's head
    starts at its arrival; every later entry of the period starts where the
    previous one's flits end.  The heads are guessed from a segmented running
    max, the periods filled with sequential float adds, and the heads
    recomputed from those exact starts until they agree.  A self-consistent
    head set reproduces the per-hop loop bit for bit, and each round fixes at
    least the first wrong head, so the loop terminates.

    ``arrive`` is overwritten with each entry's earliest start; ``queue_type``
    is an integer type that holds the level's total flits.
    """
    count = len(arrive)
    # The loop's ``time if time >= free else free``, NaN and signed zero
    # alike.  Only a segment's first entry changes, and the consistency test
    # below overrides the first entries, so ``base`` can share the arrivals.
    base = arrive
    base[firsts] = np.where(arrive[firsts] >= free, arrive[firsts], free)
    # Flits queued ahead of each entry on its link (this batch only).
    queued = np.cumsum(flits, dtype=queue_type) - flits
    queued -= np.repeat(queued[firsts], sizes)
    # Guess: entry k heads a period iff base_k - queued_k >= max_{j<k}(base_j
    # - queued_j) on its link.  Segments are lifted apart by a multiple of the
    # slack's range so one running max serves them all.
    slack = base - queued
    del queued
    spread = float(slack.max() - slack.min()) + 1.0
    slack += np.repeat(np.arange(len(firsts)) * spread, sizes)
    running = np.maximum.accumulate(slack)
    # head[count] is a sentinel closing the last period.
    head = np.ones(count + 1, dtype=bool)
    head[1:count] = slack[1:] >= running[:-1]
    head[firsts] = True
    del slack, running
    start = np.empty(count, dtype=np.float64)
    while True:
        np.copyto(start, base, where=head[:-1])
        # Only periods of two or more entries need filling.
        heads = np.flatnonzero(head)
        lengths = np.diff(heads)
        longer = lengths > 1
        _fill_periods(start, flits, heads[:-1][longer], lengths[longer])
        del heads, lengths, longer
        consistent = np.ones(count + 1, dtype=bool)
        consistent[1:count] = base[1:] >= start[:-1] + flits[:-1]
        consistent[firsts] = True
        if np.array_equal(consistent, head):
            return start
        head = consistent


def _fill_periods(
    start: np.ndarray, flits: np.ndarray, heads: np.ndarray, lengths: np.ndarray
) -> None:
    """Fill busy periods after their heads: ``start[h + j] = start[h + j - 1]
    + flits[h + j - 1]``, as sequential float adds.

    Periods are bucketed by length rounded up to a power of two, so each
    bucket is one padded matrix whose rows ``np.cumsum`` scans left to right
    -- the same adds in the same order as the hop loop, in a number of vector
    steps logarithmic in the longest period.
    """
    if not len(heads):
        return
    bucket = np.ceil(np.log2(lengths)).astype(np.int8)
    for width_log in np.flatnonzero(np.bincount(bucket)).tolist():
        chosen = bucket == width_log
        rows = heads[chosen]
        width = 1 << width_log
        # Clipped positions past a short period read (and later drop) values
        # of the periods after it.
        index = np.minimum(rows[:, None] + np.arange(width), len(start) - 1)
        scan = np.empty((len(rows), width), dtype=np.float64)
        scan[:, 0] = start[rows]
        scan[:, 1:] = flits[index[:, :-1]]
        np.cumsum(scan, axis=1, out=scan)
        inside = np.arange(width) < lengths[chosen][:, None]
        start[index[inside]] = scan[inside]


def sequential_sum(values: np.ndarray, initial: float = 0.0) -> float:
    """Left-to-right float sum from ``initial``, bit-identical to a Python
    running sum over the same values.

    ``np.cumsum`` accumulates strictly sequentially, unlike ``np.sum``'s
    pairwise reduction, so seeding the scan with the current running total
    reproduces ``(((initial + v0) + v1) + ...)`` exactly -- the accumulation
    order the reference path's per-packet statistics use.
    """
    if len(values) == 0:
        return initial
    return float(np.cumsum(np.concatenate(([initial], values)))[-1])
