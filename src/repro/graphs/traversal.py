"""Graph traversals: BFS orders/parents/numbering, components.

The BFS numbering is exactly what the Caragiannis et al. MEMT->NWST
back-mapping (paper section 2.2.1) uses to orient an undirected Steiner tree
into a directed multicast tree rooted at the source.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Hashable, Iterable

from repro.engine.backend import out_neighbors as _out_neighbors
from repro.graphs.adjacency import DiGraph, Graph

Node = Hashable


def bfs_order(graph: Graph | DiGraph, source: Node) -> list[Node]:
    """Nodes reachable from ``source`` in breadth-first order."""
    seen = {source}
    order = [source]
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v, _ in _out_neighbors(graph, u):
            if v not in seen:
                seen.add(v)
                order.append(v)
                queue.append(v)
    return order


def bfs_parents(graph: Graph | DiGraph, source: Node) -> dict[Node, Node | None]:
    """BFS tree as a ``child -> parent`` map (source maps to ``None``)."""
    parents: dict[Node, Node | None] = {source: None}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v, _ in _out_neighbors(graph, u):
            if v not in parents:
                parents[v] = u
                queue.append(v)
    return parents


def bfs_numbering(graph: Graph | DiGraph, source: Node) -> dict[Node, int]:
    """``node -> visit index`` in BFS order from ``source``."""
    return {node: i for i, node in enumerate(bfs_order(graph, source))}


def connected_components(graph: Graph) -> list[set[Node]]:
    """Connected components of an undirected graph."""
    remaining = set(graph.nodes())
    components = []
    while remaining:
        start = next(iter(remaining))
        component = set(bfs_order(graph, start))
        components.append(component)
        remaining -= component
    return components


def is_connected(graph: Graph, nodes: Iterable[Node] | None = None) -> bool:
    """True iff the (sub)graph induced on ``nodes`` (default: all) is connected."""
    sub = graph if nodes is None else graph.subgraph(nodes)
    n = len(sub)
    if n == 0:
        return True
    start = next(iter(sub))
    return len(bfs_order(sub, start)) == n


def reachable_set(graph: Graph | DiGraph, source: Node) -> set[Node]:
    return set(bfs_order(graph, source))
