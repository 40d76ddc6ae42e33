"""NoC topology builders.

A :class:`NocTopology` is a successor table of router nodes -- ``{node:
{neighbour: LinkAttributes}}`` -- plus a route function.  Three builders
cover the organizations of Chapter 4, each with a closed-form route:

* :func:`build_mesh` -- an ``R x C`` grid of core+LLC tiles, dimension-ordered
  (XY) routing, 3-cycle hops;
* :func:`build_flattened_butterfly` -- the same grid with full row/column
  connectivity, at most two network hops, link delay proportional to span;
* :func:`build_nocout` -- cores on either side of a central row of LLC tiles,
  reached through routing-free reduction/dispersion trees; LLC tiles are linked
  by a one-dimensional flattened butterfly, so every pair has one shortest
  route: up the source's tree, at most one LLC-row hop, down the destination's.

Every node is identified by an integer id; core nodes and LLC nodes are listed
separately so the traffic generator can produce the bilateral core-to-cache
pattern.  Nodes and each node's successors keep their insertion order, which
fixes link ids (:meth:`NocTopology.links`) for every consumer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable


@dataclass(frozen=True)
class LinkAttributes:
    """Physical attributes of one directed link, plus its routing weight.

    ``weight`` is 1 on a healthy link; a degraded link's weight grows with
    its latency factor, so weighted shortest-path routing over a faulted
    topology steers around it (see :mod:`repro.faults.noc`).
    """

    latency_cycles: int
    length_mm: float
    weight: float = 1.0


@dataclass
class NocTopology:
    """A routed NoC topology.

    Attributes:
        name: topology name ("mesh", "fbfly", "nocout").
        successors: ``{node: {neighbour: LinkAttributes}}`` -- one entry per
            directed link; node and link order is insertion order.
        core_nodes: node ids that host cores (traffic sources/sinks).
        llc_nodes: node ids that host LLC banks (traffic destinations).
        router_pipeline_cycles: per-router pipeline depth, by node id.
        positions: (x, y) grid coordinates of each node (for link lengths).
        routing: ``(source, destination) -> [source, ..., destination]``.
    """

    name: str
    successors: "dict[int, dict[int, LinkAttributes]]"
    core_nodes: "list[int]"
    llc_nodes: "list[int]"
    router_pipeline_cycles: "dict[int, int]"
    positions: "dict[int, tuple[float, float]]"
    routing: "Callable[[int, int], list[int]]"

    #: routes already computed, by (source, destination)
    _paths: "dict[tuple[int, int], list[int]]" = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if not callable(self.routing):
            raise ValueError(f"routing must be a route function, got {self.routing!r}")

    def route(self, source: int, destination: int) -> "list[int]":
        """Nodes along the route from ``source`` to ``destination`` (inclusive)."""
        key = (source, destination)
        path = self._paths.get(key)
        if path is None:
            path = self._paths[key] = self.routing(source, destination)
        return path

    def link(self, a: int, b: int) -> LinkAttributes:
        """Attributes of the directed link from ``a`` to ``b``."""
        return self.successors[a][b]

    def links(self) -> "list[tuple[int, int]]":
        """Every directed link ``(a, b)``, in link-id order."""
        return [(a, b) for a, neighbours in self.successors.items() for b in neighbours]

    def in_degrees(self) -> "dict[int, int]":
        """Number of links entering each node."""
        degrees = dict.fromkeys(self.successors, 0)
        for neighbours in self.successors.values():
            for b in neighbours:
                degrees[b] += 1
        return degrees

    @property
    def num_nodes(self) -> int:
        """Number of router nodes."""
        return len(self.successors)

    @property
    def num_links(self) -> int:
        """Number of directed links."""
        return sum(map(len, self.successors.values()))

    def zero_load_latency(self, source: int, destination: int, flits: int = 1) -> float:
        """Zero-load latency of a packet: routers + links + serialization."""
        path = self.route(source, destination)
        latency = 0.0
        for a, b in zip(path[:-1], path[1:]):
            latency += self.router_pipeline_cycles.get(a, 1)
            latency += self.link(a, b).latency_cycles
        latency += self.router_pipeline_cycles.get(path[-1], 1)
        latency += max(0, flits - 1)  # serialization of the packet body
        return latency

    def average_hop_count(self) -> float:
        """Average hop count over all core -> LLC pairs."""
        total, pairs = 0, 0
        for core in self.core_nodes:
            for llc in self.llc_nodes:
                total += len(self.route(core, llc)) - 1
                pairs += 1
        return total / max(1, pairs)


def _grid_dims(tiles: int) -> "tuple[int, int]":
    cols = int(math.ceil(math.sqrt(tiles)))
    rows = int(math.ceil(tiles / cols))
    return rows, cols


def build_mesh(
    cores: int = 64,
    tile_pitch_mm: float = 1.4,
    hop_latency_cycles: int = 3,
    router_pipeline_cycles: int = 2,
) -> NocTopology:
    """2D mesh of core+LLC tiles with XY (shortest-path) routing.

    Each hop costs ``hop_latency_cycles`` total (a 2-stage router plus a 1-cycle
    link, Table 4.1); the link latency carried by the edges is the hop latency
    minus the router pipeline so that zero-load latency matches the paper's
    3 cycles/hop.
    """
    rows, cols = _grid_dims(cores)
    successors: "dict[int, dict[int, LinkAttributes]]" = {}
    positions: "dict[int, tuple[float, float]]" = {}
    link_cycles = max(1, hop_latency_cycles - router_pipeline_cycles)
    for node in range(rows * cols):
        r, c = divmod(node, cols)
        positions[node] = (c, r)
        successors[node] = {}
    for node in range(rows * cols):
        r, c = divmod(node, cols)
        for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0)):
            nr, nc = r + dr, c + dc
            if 0 <= nr < rows and 0 <= nc < cols:
                neighbour = nr * cols + nc
                attrs = LinkAttributes(latency_cycles=link_cycles, length_mm=tile_pitch_mm)
                successors[node][neighbour] = attrs
    nodes = list(range(rows * cols))[:cores]

    def xy_route(source: int, destination: int) -> "list[int]":
        """Dimension-ordered (X then Y) routing -- balanced and deadlock-free."""
        sr, sc = divmod(source, cols)
        dr, dc = divmod(destination, cols)
        path = [source]
        r, c = sr, sc
        while c != dc:
            c += 1 if dc > c else -1
            path.append(r * cols + c)
        while r != dr:
            r += 1 if dr > r else -1
            path.append(r * cols + c)
        return path

    return NocTopology(
        name="mesh",
        successors=successors,
        core_nodes=nodes,
        llc_nodes=nodes,  # every tile holds an LLC slice
        router_pipeline_cycles={n: router_pipeline_cycles for n in successors},
        positions=positions,
        routing=xy_route,
    )


def build_flattened_butterfly(
    cores: int = 64,
    tile_pitch_mm: float = 1.4,
    router_pipeline_cycles: int = 3,
    tiles_per_cycle: float = 2.0,
) -> NocTopology:
    """Flattened butterfly: full connectivity along every row and column.

    Link latency grows with the span of the link (a flit covers up to
    ``tiles_per_cycle`` tiles per cycle, Table 4.1); routing needs at most two
    hops.
    """
    rows, cols = _grid_dims(cores)
    successors: "dict[int, dict[int, LinkAttributes]]" = {}
    positions: "dict[int, tuple[float, float]]" = {}
    for node in range(rows * cols):
        r, c = divmod(node, cols)
        positions[node] = (c, r)
        successors[node] = {}
    for node in range(rows * cols):
        r, c = divmod(node, cols)
        for other_c in range(cols):
            if other_c != c:
                span = abs(other_c - c)
                latency = max(1, int(math.ceil(span / tiles_per_cycle)))
                attrs = LinkAttributes(latency_cycles=latency, length_mm=span * tile_pitch_mm)
                successors[node][r * cols + other_c] = attrs
        for other_r in range(rows):
            if other_r != r:
                span = abs(other_r - r)
                latency = max(1, int(math.ceil(span / tiles_per_cycle)))
                attrs = LinkAttributes(latency_cycles=latency, length_mm=span * tile_pitch_mm)
                successors[node][other_r * cols + c] = attrs
    nodes = list(range(rows * cols))[:cores]

    def row_column_route(source: int, destination: int) -> "list[int]":
        """At most two hops: one along the row, then one along the column."""
        sr, sc = divmod(source, cols)
        dr, dc = divmod(destination, cols)
        path = [source]
        if sc != dc:
            path.append(sr * cols + dc)
        if sr != dr:
            path.append(dr * cols + dc)
        return path

    return NocTopology(
        name="fbfly",
        successors=successors,
        core_nodes=nodes,
        llc_nodes=nodes,
        router_pipeline_cycles={n: router_pipeline_cycles for n in successors},
        positions=positions,
        routing=row_column_route,
    )


def build_nocout(
    cores: int = 64,
    llc_tiles: int = 8,
    tile_pitch_mm: float = 1.4,
    tree_hop_cycles: int = 1,
    llc_router_pipeline_cycles: int = 3,
    tiles_per_cycle: float = 2.0,
) -> NocTopology:
    """NOC-Out: reduction/dispersion trees into a central flattened-butterfly LLC row.

    Core nodes are numbered ``0 .. cores-1``; LLC nodes are ``cores .. cores +
    llc_tiles - 1``.  Cores are split into columns above and below the LLC row;
    each column is chained into the LLC tile at its foot (a reduction tree in one
    direction, a dispersion tree in the other -- modelled as symmetric 1-cycle
    links).  LLC tiles are fully connected to each other.
    """
    if cores % llc_tiles != 0:
        raise ValueError("cores must be a multiple of llc_tiles")
    cores_per_tree = cores // llc_tiles // 2  # trees above and below the LLC row
    cores_per_tree = max(1, cores_per_tree)
    successors: "dict[int, dict[int, LinkAttributes]]" = {}
    positions: "dict[int, tuple[float, float]]" = {}
    router_pipeline: "dict[int, int]" = {}
    # each node's chain up to its LLC tile: [node, parent, ..., llc]
    chains: "dict[int, list[int]]" = {}

    llc_nodes = [cores + i for i in range(llc_tiles)]
    llc_row_y = cores_per_tree
    for i, llc in enumerate(llc_nodes):
        successors[llc] = {}
        positions[llc] = (i, llc_row_y)
        router_pipeline[llc] = llc_router_pipeline_cycles
        chains[llc] = [llc]

    # Reduction/dispersion trees: chains of cores feeding each LLC tile from
    # above and below (Figure 4.4).
    core_id = 0
    for i, llc in enumerate(llc_nodes):
        for side in (-1, +1):
            previous = llc
            for depth in range(1, cores_per_tree + 1):
                node = core_id
                core_id += 1
                if core_id > cores:
                    break
                positions[node] = (i, llc_row_y + side * depth)
                router_pipeline[node] = tree_hop_cycles
                attrs = LinkAttributes(latency_cycles=tree_hop_cycles, length_mm=tile_pitch_mm)
                successors[node] = {previous: attrs}
                successors[previous][node] = attrs
                chains[node] = [node, *chains[previous]]
                previous = node

    # One-dimensional flattened butterfly among the LLC tiles.
    for a_idx, a in enumerate(llc_nodes):
        for b_idx, b in enumerate(llc_nodes):
            if a == b:
                continue
            span = abs(a_idx - b_idx)
            latency = max(1, int(math.ceil(span / tiles_per_cycle)))
            attrs = LinkAttributes(latency_cycles=latency, length_mm=span * tile_pitch_mm)
            successors[a][b] = attrs

    def tree_route(source: int, destination: int) -> "list[int]":
        """Up the source's chain, across the LLC row, down the destination's."""
        up = chains[source]
        down = chains[destination][::-1]
        if up[-1] != down[0]:
            return up + down  # one hop along the LLC row
        # One tree: turn at the deepest node both chains share.
        shared = 1
        while shared < min(len(up), len(down)) and up[-1 - shared] == down[shared]:
            shared += 1
        return up[: len(up) - shared + 1] + down[shared:]

    core_nodes = list(range(cores))
    return NocTopology(
        name="nocout",
        successors=successors,
        core_nodes=core_nodes,
        llc_nodes=llc_nodes,
        router_pipeline_cycles=router_pipeline,
        positions=positions,
        routing=tree_route,
    )


TOPOLOGY_BUILDERS: "dict[str, Callable[..., NocTopology]]" = {
    "mesh": build_mesh,
    "fbfly": build_flattened_butterfly,
    "flattened_butterfly": build_flattened_butterfly,
    "nocout": build_nocout,
}
