"""NoC link-fault injection as a pure topology transform.

:func:`apply_link_faults` takes a :class:`~repro.noc.topology.NocTopology`
and a set of :class:`~repro.faults.events.LinkFault` events and returns a
*new* topology with the faults applied -- the input (which may be a shared,
cached instance) is never mutated, and an empty fault set returns the input
object itself so zero-fault NoC runs stay byte-identical.

Fault semantics:

* ``"degraded"`` -- both directed edges of the link keep existing but their
  latency is multiplied by ``latency_factor`` (rounded up) and their routing
  weight grows by the same factor, so shortest-path routing steers traffic
  around the slow link when an alternative exists;
* ``"down"`` -- both directed edges are removed, *unless* removal would cut
  some core off from some LLC bank (checked via strongly connected
  components over the core+LLC node set), in which case the link is degraded
  by ``latency_factor`` instead -- a partitioned network has no defined
  latency, so the transform refuses to create one.

The faulted topology drops the builder's closed-form route (XY or
row/column routing would happily route straight through a missing link) and
routes by weighted shortest path (``networkx.shortest_path`` over the links'
``weight``).  This module is the only place the package uses networkx, and it
imports it on first use: healthy runs never load it.  The package's route
tables (:class:`~repro.noc.fastpath.CompiledTopology`, compiled per topology
instance) and the test oracle's per-packet walk both follow
``topology.route()``, so the two stay bit-identical under faults.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.faults.events import LinkFault
from repro.noc.topology import LinkAttributes, NocTopology

if TYPE_CHECKING:  # pragma: no cover - networkx is imported on first use
    import networkx as nx


def undirected_links(topology: NocTopology) -> "tuple[tuple[int, int], ...]":
    """The topology's links as canonical (min, max) pairs, sorted.

    This is the link pool a :class:`~repro.faults.generator.FaultLoadGenerator`
    samples link faults from.
    """
    return tuple(
        sorted({(min(a, b), max(a, b)) for a, b in topology.links()})
    )


#: The largest link latency the NoC kernel's int64 latency table holds.
_INT64_MAX = 2**63 - 1


def _degrade(graph: "nx.DiGraph", a: int, b: int, factor: float) -> None:
    """Multiply one directed edge's latency and routing weight by ``factor``.

    Raises:
        ValueError: the degraded latency does not fit in int64.
    """
    edge = graph.edges[a, b]
    attrs: LinkAttributes = edge["attrs"]
    latency = attrs.latency_cycles * factor
    # A float at most _INT64_MAX rounds up to at most it (floats there are
    # 1,024 apart); an infinite product fails too.
    if not latency <= _INT64_MAX:
        raise ValueError(
            f"latency_factor {factor!r} takes link ({a}, {b}) past the int64 latency "
            f"limit ({attrs.latency_cycles} cycles x {factor!r} > {_INT64_MAX})"
        )
    edge["attrs"] = LinkAttributes(
        latency_cycles=int(math.ceil(latency)),
        length_mm=attrs.length_mm,
        weight=attrs.weight * factor,
    )
    edge["weight"] = edge["attrs"].weight


def apply_link_faults(
    topology: NocTopology, link_faults: "Sequence[LinkFault] | Iterable[LinkFault]"
) -> NocTopology:
    """Return ``topology`` with the link faults applied (input untouched).

    Args:
        topology: the healthy topology (possibly a shared cached instance;
            it is never mutated).
        link_faults: the faults to apply; links absent from the topology
            are ignored.

    Returns:
        The same object when ``link_faults`` is empty; otherwise a new
        :class:`NocTopology` named ``"<name>+faults"`` with weighted
        shortest-path routing and a fresh route cache.

    Raises:
        ValueError: a fault's ``latency_factor`` would take a degraded link's
            latency past int64 (the NoC kernel's latency table).
    """
    faults = tuple(link_faults)
    if not faults:
        return topology

    import networkx as nx

    from repro.obs.tracer import get_tracer

    tracer = get_tracer()
    # A weighted graph in the topology's node and link order: the order fixes
    # link ids and the shortest-path tie-breaks.
    graph = nx.DiGraph()
    graph.add_nodes_from(topology.successors)
    for a, b in topology.links():
        attrs = topology.link(a, b)
        graph.add_edge(a, b, attrs=attrs, weight=attrs.weight)
    required = set(topology.core_nodes) | set(topology.llc_nodes)
    for fault in faults:
        a, b = fault.link
        directed = [(x, y) for x, y in ((a, b), (b, a)) if graph.has_edge(x, y)]
        if not directed:
            continue
        if fault.severity == "down":
            removed = [(x, y, dict(graph.edges[x, y])) for x, y in directed]
            graph.remove_edges_from(directed)
            # Keep the removal if every core and LLC still sits in one
            # mutual-reach strongly connected component.
            if any(required <= scc for scc in nx.strongly_connected_components(graph)):
                if tracer.enabled:
                    tracer.counter("faults.link_down").add()
                continue
            # Removal would partition cores from LLC banks; degrade instead.
            for x, y, data in removed:
                graph.add_edge(x, y, **data)
        for x, y in directed:
            _degrade(graph, x, y, fault.latency_factor)
        if tracer.enabled:
            tracer.counter("faults.link_degraded").add()

    return NocTopology(
        name=f"{topology.name}+faults",
        successors={a: {b: data["attrs"] for b, data in graph.succ[a].items()} for a in graph},
        core_nodes=list(topology.core_nodes),
        llc_nodes=list(topology.llc_nodes),
        router_pipeline_cycles=dict(topology.router_pipeline_cycles),
        positions=dict(topology.positions),
        routing=functools.partial(nx.shortest_path, graph, weight="weight"),
    )
