"""Edge-weighted shortest paths (Dijkstra) and path reconstruction.

Used for shortest-path universal trees (section 2.1 of the paper), the
metric closure behind the KMB Steiner approximation and the Jain-Vazirani
cost shares, and as a building block of the node-weighted variant in
:mod:`repro.graphs.node_weighted`.

Every entry point accepts any :class:`~repro.engine.backend.GraphBackend`:
adjacency-map graphs run the addressable-heap implementation, array graphs
(:class:`~repro.engine.dense.DenseGraph` / ``CSRGraph``) dispatch to their
vectorised masked-min kernels.  Distances are identical either way; parent
pointers can differ only on exact distance ties.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable

from repro.engine.backend import out_neighbors as _out_neighbors
from repro.engine.dense import ArrayGraph
from repro.graphs.addressable_heap import AddressableHeap
from repro.graphs.adjacency import DiGraph, Graph

Node = Hashable


def dijkstra(
    graph: Graph | DiGraph | ArrayGraph,
    source: Node,
    targets: Iterable[Node] | None = None,
) -> tuple[dict[Node, float], dict[Node, Node | None]]:
    """Single-source shortest paths with non-negative edge weights.

    Parameters
    ----------
    graph:
        Undirected or directed graph (dict- or array-backed).
    source:
        Start node.
    targets:
        Optional early-exit set: the search stops once every target has
        been settled.  Only settled nodes appear in the result — ``dist``
        and ``parent`` always have exactly the same keys, so an unsettled
        node can never be silently path-reconstructed through provisional
        predecessors.

    Returns
    -------
    (dist, parent):
        ``dist[v]`` is the shortest distance from ``source``;
        ``parent[v]`` the predecessor on one shortest path (``None`` at the
        source).
    """
    if isinstance(graph, ArrayGraph):
        return _dijkstra_array(graph, source, targets)
    remaining = set(targets) if targets is not None else None
    dist: dict[Node, float] = {}
    parent: dict[Node, Node | None] = {source: None}
    heap = AddressableHeap()
    heap.push(source, 0.0)
    while heap:
        u, d = heap.pop()
        dist[u] = d
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for v, w in _out_neighbors(graph, u):
            if w < 0:
                raise ValueError(f"negative edge weight on ({u!r}, {v!r}): {w}")
            if v in dist:
                continue
            if heap.push_or_decrease(v, d + w):
                parent[v] = u
    if remaining is not None:
        # Early exit leaves provisional parent entries for nodes that were
        # relaxed but never settled; drop them so dist/parent agree.
        parent = {v: p for v, p in parent.items() if v in dist}
    return dist, parent


def _dijkstra_array(
    graph: ArrayGraph, source: Node, targets: Iterable[Node] | None
) -> tuple[dict[Node, float], dict[Node, Node | None]]:
    dist_arr, parent_arr, order = graph.dijkstra_arrays(int(source), targets)
    dist: dict[Node, float] = {}
    parent: dict[Node, Node | None] = {}
    for u in order:
        u = int(u)
        dist[u] = float(dist_arr[u])
        p = int(parent_arr[u])
        parent[u] = p if p >= 0 else None
    return dist, parent


def all_pairs_dijkstra(graph: Graph | DiGraph | ArrayGraph) -> dict[Node, dict[Node, float]]:
    """All-pairs shortest distances (one Dijkstra per node; array graphs
    run every source in lockstep through one vectorised sweep)."""
    if isinstance(graph, ArrayGraph) and hasattr(graph, "all_pairs_arrays"):
        import numpy as np

        d = graph.all_pairs_arrays()
        return {
            int(u): {int(v): float(d[u, v]) for v in np.flatnonzero(np.isfinite(d[u]))}
            for u in range(graph.n)
        }
    return {u: dijkstra(graph, u)[0] for u in graph.nodes()}


def reconstruct_path(parent: dict[Node, Node | None], target: Node) -> list[Node]:
    """Path from the Dijkstra source to ``target`` (inclusive)."""
    if target not in parent:
        raise KeyError(f"target {target!r} unreachable (not in parent map)")
    path = [target]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    path.reverse()
    return path

