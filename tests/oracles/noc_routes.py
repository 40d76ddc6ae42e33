"""Weighted shortest paths: the oracle for the NoC topologies' routes.

Builds a ``networkx.DiGraph`` from a topology's successor table, in its node
and link order, with each link's routing weight, so tests can compare a
closed-form route (NOC-Out's trees) or a faulted topology's route with
``networkx.shortest_path(weight="weight")`` and check strong connectivity.
"""

from __future__ import annotations

import networkx as nx


def weighted_digraph(topology) -> "nx.DiGraph":
    """``topology``'s links as a weighted directed graph."""
    graph = nx.DiGraph()
    graph.add_nodes_from(topology.successors)
    for a, b in topology.links():
        graph.add_edge(a, b, weight=topology.link(a, b).weight)
    return graph


def shortest_route(graph: "nx.DiGraph", source: int, destination: int) -> "list[int]":
    """The weighted shortest path from ``source`` to ``destination``."""
    return nx.shortest_path(graph, source, destination, weight="weight")
