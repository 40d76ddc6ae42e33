"""Structure-of-arrays fast path for the packet-level NoC simulator.

The reference implementation (:class:`~repro.noc.network.NocNetwork` with
``use_fastpath=False``) routes one ``Packet`` object at a time: every hop costs
a networkx edge lookup, a dict probe for the router pipeline depth, and a
``LinkState`` attribute update.  Under sweep traffic those per-object costs
dominate the wall clock.  This module keeps the *model* identical but changes
the *representation*:

* :class:`CompiledTopology` flattens a :class:`~repro.noc.topology.NocTopology`
  into integer arrays -- a dense link index, per-hop ``(pipeline, link,
  latency)`` triples for every (source, destination) pair actually routed, and
  the destination pipeline depth -- so the inner loop touches no graphs and no
  dicts of objects.
* :class:`PacketBatch` carries a whole traffic batch as parallel numpy arrays
  (injection time, source, destination, message class, flits, packet id)
  instead of a list of ``Packet`` objects, with a lazy adapter back to objects
  for callers that want them.
* :func:`process_batch` delivers the batch with a **link-ordered wavefront**
  when the channel dependency graph (CDG) of the compiled routes is acyclic --
  as it is for XY mesh routing, the flattened butterfly's row/column routing
  and NOC-Out's trees.  Every (packet, hop) becomes one entry; the entries are
  grouped by link, links ordered by CDG level, and each level's links solve
  their whole contention history in numpy once the levels upstream are done.
  A cyclic CDG (a faulted mesh's weighted shortest paths) falls back to the
  per-packet hop loop.  Both return per-packet arrival times and update the
  per-link occupancy counters.

Bit-exactness contract: the kernels perform *the same floating-point
operations* as ``NocNetwork.send`` -- per-hop pipeline add, ``max`` against
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

from dataclasses import dataclass, field
from itertools import chain
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.noc.packet import MessageClass, Packet
from repro.noc.topology import NocTopology

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.noc.network import NocConfig

#: Stable integer codes for the message classes (array representation).
CLASS_ORDER: "tuple[MessageClass, ...]" = (
    MessageClass.DATA_REQUEST,
    MessageClass.SNOOP_REQUEST,
    MessageClass.RESPONSE,
)
CLASS_CODES: "dict[MessageClass, int]" = {cls: i for i, cls in enumerate(CLASS_ORDER)}


@dataclass(frozen=True)
class PacketBatch:
    """A traffic batch as a structure of arrays (one row per packet).

    Attributes:
        injection_time: injection cycle per packet (float64).
        source: source node id per packet (int64).
        destination: destination node id per packet (int64).
        class_code: message-class code per packet (see ``CLASS_CODES``).
        flits: packet length in flits; 0 means "sized by the network config",
            exactly like ``Packet.flits``.
        packet_id: unique id per packet (the run order tie-breaker).
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

    @classmethod
    def from_packets(cls, packets: "Sequence[Packet]") -> "PacketBatch":
        """Column-ify a list of ``Packet`` objects (the reverse adapter)."""
        return cls(
            injection_time=np.array([p.injection_time for p in packets], dtype=np.float64),
            source=np.array([p.source for p in packets], dtype=np.int64),
            destination=np.array([p.destination for p in packets], dtype=np.int64),
            class_code=np.array([CLASS_CODES[p.message_class] for p in packets], dtype=np.int64),
            flits=np.array([p.flits for p in packets], dtype=np.int64),
            packet_id=np.array([p.packet_id for p in packets], dtype=np.int64),
        )

    def to_packets(self) -> "list[Packet]":
        """Materialize ``Packet`` objects, in batch (emission) order."""
        return [
            Packet(
                source=src,
                destination=dst,
                message_class=CLASS_ORDER[code],
                injection_time=t,
                flits=flits,
                packet_id=pid,
            )
            for src, dst, code, t, flits, pid in zip(
                self.source.tolist(),
                self.destination.tolist(),
                self.class_code.tolist(),
                self.injection_time.tolist(),
                self.flits.tolist(),
                self.packet_id.tolist(),
            )
        ]

    @classmethod
    def concatenate(cls, batches: "Iterable[PacketBatch]") -> "PacketBatch":
        """Stack several batches into one (emission order preserved)."""
        parts = list(batches)
        if not parts:
            return cls(*(np.empty(0, dtype=d) for d in (np.float64,) + (np.int64,) * 5))
        return cls(
            injection_time=np.concatenate([b.injection_time for b in parts]),
            source=np.concatenate([b.source for b in parts]),
            destination=np.concatenate([b.destination for b in parts]),
            class_code=np.concatenate([b.class_code for b in parts]),
            flits=np.concatenate([b.flits for b in parts]),
            packet_id=np.concatenate([b.packet_id for b in parts]),
        )


@dataclass(frozen=True)
class CompiledRoute:
    """One (source, destination) pair's route in flat form.

    ``hops`` holds one ``(router_pipeline, link_index, link_latency)`` triple
    per traversed link, in path order; ``tail_pipeline`` is the destination
    router's pipeline depth.
    """

    hops: "tuple[tuple[int, int, int], ...]"
    tail_pipeline: int

    @property
    def num_hops(self) -> int:
        """Number of links the route traverses."""
        return len(self.hops)


class CompiledTopology:
    """A :class:`NocTopology` flattened into integer arrays for the kernel.

    Link indices follow the graph's edge iteration order (the same order the
    reference path builds its ``LinkState`` dict in), and routes are compiled
    lazily per (source, destination) pair -- only the pairs a traffic pattern
    actually uses pay the routing cost, and the underlying topology's own route
    cache keeps recompilation across networks cheap.

    :meth:`compile_pairs` keeps the routes in dense tables for the wavefront:
    ``route_offset`` / ``route_length`` / ``route_tail`` per
    ``source * num_nodes + destination`` pair, and ``hop_pipeline`` /
    ``hop_link`` / ``hop_latency`` per flat hop.  It also keeps the CDG of
    those routes: each link's ``link_level`` and the ``acyclic`` flag.
    """

    def __init__(self, topology: NocTopology):
        self.topology = topology
        self.edge_index: "dict[tuple[int, int], int]" = {
            (a, b): i for i, (a, b) in enumerate(topology.graph.edges)
        }
        self.num_links = len(self.edge_index)
        self.num_nodes = topology.graph.number_of_nodes()
        self._routes: "dict[tuple[int, int], CompiledRoute]" = {}
        # Dense route tables, indexed by ``source * num_nodes + destination``
        # (a length of -1 marks a pair not compiled yet) and by flat hop
        # position ``route_offset + hop``.
        pairs = self.num_nodes * self.num_nodes
        graph = topology.graph
        self._link_of = np.full(pairs, -1, dtype=np.int32)
        self._link_of[[a * self.num_nodes + b for a, b in self.edge_index]] = np.arange(
            self.num_links
        )
        self._link_latency = np.array(
            [attrs.latency_cycles for _, _, attrs in graph.edges(data="attrs")], dtype=np.int16
        )
        pipelines = topology.router_pipeline_cycles
        self._node_pipeline = np.array(
            [pipelines.get(node, 1) for node in range(self.num_nodes)], dtype=np.int16
        )
        self.route_offset = np.zeros(pairs, dtype=np.int32)
        self.route_length = np.full(pairs, -1, dtype=np.int16)
        self.route_tail = np.zeros(pairs, dtype=np.int16)
        self.hop_pipeline = np.empty(0, dtype=np.int16)
        self.hop_link = np.empty(0, dtype=np.int32)
        self.hop_latency = np.empty(0, dtype=np.int16)
        # Channel dependency graph (CDG) of the compiled routes: an edge
        # ``(l1, l2)`` means some route leaves link l1 onto link l2.
        self._dependencies: "set[int]" = set()
        self.acyclic = True
        self.link_level = np.zeros(self.num_links, dtype=np.int16)
        self.num_levels = 1
        key_type = np.int16 if self.num_links <= np.iinfo(np.int16).max else np.int32
        #: each link's rank in (level, link) order -- a narrow sort key -- and
        #: its inverse, the link holding each rank.
        self.link_key = np.arange(self.num_links, dtype=key_type)
        self.links_by_key = np.arange(self.num_links, dtype=np.int32)
        #: the first rank of each level, then ``num_links``.
        self.level_start_key = np.array([0, self.num_links], dtype=np.int32)

    def route_for(self, source: int, destination: int) -> CompiledRoute:
        """The compiled route for one pair (compiled on first use)."""
        key = (source, destination)
        route = self._routes.get(key)
        if route is None:
            topology = self.topology
            path = topology.route(source, destination)
            pipelines = topology.router_pipeline_cycles
            hops = tuple(
                (
                    pipelines.get(a, 1),
                    self.edge_index[(a, b)],
                    topology.link(a, b).latency_cycles,
                )
                for a, b in zip(path[:-1], path[1:])
            )
            route = CompiledRoute(hops=hops, tail_pipeline=pipelines.get(path[-1], 1))
            self._routes[key] = route
        return route

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
        nodes = np.fromiter(chain.from_iterable(paths), dtype=np.int32, count=int(sizes.sum()))
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
        pipelines = self._node_pipeline[nodes[departs]]
        self.hop_pipeline = np.concatenate((self.hop_pipeline, pipelines))
        self.hop_link = np.concatenate((self.hop_link, links))
        self.hop_latency = np.concatenate((self.hop_latency, self._link_latency[links]))
        # Consecutive hops of one route form a CDG edge, keyed l1 * links + l2:
        # hop i and i + 1 belong to one route when their path nodes are adjacent.
        within = departs[1:] == departs[:-1] + 1
        edges = links[:-1].astype(np.int64) * self.num_links + links[1:]
        known = len(self._dependencies)
        self._dependencies.update(edges[within].tolist())
        if self.acyclic and len(self._dependencies) > known:
            self._relevel()

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
    """Per-packet outcome of one :func:`process_batch` call (batch order)."""

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
    occupancy state (one slot per link, ``compiled.edge_index`` order); they
    are updated in place so repeated batches see earlier traffic, exactly like
    repeated ``send`` calls on the reference path.

    Raises:
        ValueError: a source or destination is not a node id of the topology.
    """
    n = len(batch)
    num_nodes = compiled.num_nodes
    for name in ("source", "destination"):
        column = getattr(batch, name)
        if n and (column.min() < 0 or column.max() >= num_nodes):
            raise ValueError(
                f"PacketBatch column {name!r} holds node ids outside 0..{num_nodes - 1}"
            )
    resolved = np.where(
        batch.flits > 0, batch.flits, flit_table(config)[batch.class_code]
    )
    # Delivery order: injection time, ties broken by packet id (lexsort keys
    # are significance-last, and both sorts are stable) -- identical to the
    # reference path's sorted(key=(injection_time, packet_id)).
    order = np.lexsort((batch.packet_id, batch.injection_time))
    pair_key = batch.source * num_nodes + batch.destination
    compiled.compile_pairs(pair_key)
    if compiled.acyclic:
        arrivals = _wavefront(compiled, batch, resolved, order, pair_key, next_free, flits_carried)
    else:
        arrivals = _hop_loop(compiled, batch, resolved, order, pair_key, next_free, flits_carried)
    return BatchResult(
        arrival_time=arrivals,
        latency=arrivals - batch.injection_time,
        hops=compiled.route_length[pair_key].astype(np.int64),
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
    num_nodes = compiled.num_nodes
    # Address routes by a small per-batch integer code so the packet loop
    # never touches a dict or builds a tuple key.
    unique_pairs, pair_code = np.unique(pair_key, return_inverse=True)
    routes = [
        compiled.route_for(int(pair) // num_nodes, int(pair) % num_nodes)
        for pair in unique_pairs
    ]
    hops_by_code = [route.hops for route in routes]
    tail_by_code = [route.tail_pipeline for route in routes]

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
    level's arrivals depend only on starts at lower levels, which are final.
    """
    pair_o = pair_key[order]
    injection_o = batch.injection_time[order]
    length_o = compiled.route_length[pair_o].astype(np.int32)
    first_o = np.cumsum(length_o, dtype=np.int32) - length_o
    total = int(length_o.sum())
    # Flat hop position of every entry: its route's offset plus the hop.
    hop = np.repeat(compiled.route_offset[pair_o] - first_o, length_o)
    hop += np.arange(total, dtype=np.int32)
    key = compiled.link_key[compiled.hop_link[hop]]
    per_key = np.bincount(key, minlength=compiled.num_links)
    perm = np.argsort(key, kind="stable").astype(np.int32)
    del key
    hop = hop[perm]
    pipeline = compiled.hop_pipeline[hop]
    routed = length_o > 0
    hop_zero = int(routed.sum())
    # Hop 0 reads its upstream "start" from a slot past the entries holding
    # the injection time, with latency 0: (injection + 0) + pipeline is
    # exactly injection + pipeline.
    latency = np.zeros(total + hop_zero, dtype=np.int16)
    latency[:total] = compiled.hop_latency[hop]
    del hop
    narrow = np.int16 if resolved.max(initial=0) <= np.iinfo(np.int16).max else np.int32
    flits = np.repeat(resolved[order].astype(narrow), length_o)[perm]
    # position[e]: where packet-major entry e landed in the grouped layout.
    position = np.empty(total, dtype=np.int32)
    position[perm] = np.arange(total, dtype=np.int32)
    upstream = position[perm - 1]
    del perm
    upstream[position[first_o[routed]]] = np.arange(total, total + hop_zero, dtype=np.int32)
    last_hop = position[(first_o + length_o - 1)[routed]]
    del position, first_o
    start = np.empty(total + hop_zero, dtype=np.float64)
    start[total:] = injection_o[routed]

    # One segment per link that carries traffic, in grouped order.
    key_end = np.cumsum(per_key)
    used = per_key > 0
    segment_link = compiled.links_by_key[used]
    segment_size = per_key[used]
    segment_first = (key_end - per_key)[used]
    level_bounds = np.concatenate(([0], key_end))[compiled.level_start_key].tolist()
    segment_bounds = np.searchsorted(segment_first, level_bounds).tolist()
    # Flits queued ahead of each entry on its link (this batch only).
    queued = np.cumsum(flits, dtype=np.int64) - flits
    queued -= np.repeat(queued[segment_first], segment_size)
    free = np.array(next_free, dtype=np.float64)
    for level in range(compiled.num_levels):
        lo, hi = level_bounds[level], level_bounds[level + 1]
        if lo == hi:
            continue
        up = upstream[lo:hi]
        arrive = (start[up] + latency[up]) + pipeline[lo:hi]
        first, last = segment_bounds[level], segment_bounds[level + 1]
        start[lo:hi] = _serve(
            arrive,
            flits[lo:hi],
            queued[lo:hi],
            segment_first[first:last] - lo,
            segment_size[first:last],
            free[segment_link[first:last]],
        )

    if total:
        ends = segment_first + segment_size - 1
        free[segment_link] = start[ends] + flits[ends]
        next_free[:] = free.tolist()
        carried = np.add.reduceat(flits, segment_first, dtype=np.int64)
        for link, count in zip(segment_link.tolist(), carried.tolist()):
            flits_carried[link] += count

    # Arrival: (last start + latency) + tail pipeline, then the serialization
    # add -- the same separate additions as the hop loop.  A zero-hop packet
    # starts from its injection time.
    arrivals_o = injection_o
    arrivals_o[routed] = start[last_hop] + latency[last_hop]
    arrivals_o += compiled.route_tail[pair_o]
    arrivals_o += resolved[order] - 1
    arrivals = np.empty(len(batch), dtype=np.float64)
    arrivals[order] = arrivals_o
    return arrivals


def _serve(
    arrive: np.ndarray,
    flits: np.ndarray,
    queued: np.ndarray,
    firsts: np.ndarray,
    sizes: np.ndarray,
    free: np.ndarray,
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
    """
    count = len(arrive)
    base = arrive.copy()
    # The loop's ``time if time >= free else free``, NaN and signed zero alike.
    base[firsts] = np.where(arrive[firsts] >= free, arrive[firsts], free)
    # Guess: entry k heads a period iff base_k - queued_k >= max_{j<k}(base_j
    # - queued_j) on its link.  Segments are lifted apart by a multiple of the
    # slack's range so one running max serves them all.
    slack = base - queued
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
        heads = np.flatnonzero(head)
        lengths = np.diff(heads)
        heads = heads[:-1]
        start[heads] = base[heads]
        _fill_periods(start, flits, heads[lengths > 1], lengths[lengths > 1])
        consistent = np.ones(count + 1, dtype=bool)
        consistent[1:count] = arrive[1:] >= start[:-1] + flits[:-1]
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
