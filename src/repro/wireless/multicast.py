"""Multicast trees <-> power assignments.

Two constructions the paper uses throughout:

* a directed multicast tree (``child -> parent`` map rooted at the source)
  induces the power assignment ``pi(x) = max over children y of c(x, y)``;
* the *Steiner heuristic* (section 3.2): orient any undirected Steiner tree
  away from the source; the induced assignment costs at most the tree's
  edge-weight sum (each station pays only its largest child edge).
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.graphs.adjacency import Graph
from repro.graphs.traversal import bfs_parents
from repro.wireless.cost_graph import CostGraph
from repro.wireless.power import PowerAssignment


def power_from_parents(network: CostGraph, parents: Mapping[int, int | None]) -> PowerAssignment:
    """Power assignment implementing the directed tree given as
    ``child -> parent`` (the source maps to ``None``)."""
    p = np.zeros(network.n)
    for child, parent in parents.items():
        if parent is None:
            continue
        p[parent] = max(p[parent], network.cost(parent, child))
    return PowerAssignment(p)


def parents_from_tree_edges(
    edges: Iterable[tuple[int, int]], source: int
) -> dict[int, int | None]:
    """Orient an undirected tree (edge list) away from ``source``."""
    g = Graph()
    g.add_node(source)
    for u, v in edges:
        g.add_edge(u, v, 1.0)
    return bfs_parents(g, source)


def steiner_heuristic_power(
    network: CostGraph, edges: Iterable[tuple[int, int]], source: int
) -> PowerAssignment:
    """The paper's Steiner heuristic: orient ``edges`` downward from the
    source and pay each station its maximum child-edge cost.

    ``cost(pi) <= sum of edge costs`` always holds (each edge is paid at
    most once, and a station with several children pays only the largest)."""
    parents = parents_from_tree_edges(edges, source)
    return power_from_parents(network, parents)

