"""Node-weighted shortest paths.

In the node-weighted Steiner tree problem (NWST) the cost of a tree is the
sum of the *node* weights it uses.  The natural path metric is therefore

    d(a, b) = min over paths P from a to b of  sum_{x in P, x != a} w(x)

i.e. every node on the path pays its weight except the *source* endpoint
(whose weight is accounted for once by whoever includes it: the spider
center in Klein-Ravi/Guha-Khuller, or the previous path segment).  With all
terminals having weight 0 (the paper's WLOG normalisation) this metric makes
path costs compose additively: the cost of walking a -> m -> b is
``d(a, m) + d(m, b)`` with ``w(m)`` counted exactly once.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

from repro.graphs.addressable_heap import AddressableHeap
from repro.graphs.adjacency import Graph

Node = Hashable


def node_weighted_dijkstra(
    graph: Graph,
    weights: Mapping[Node, float],
    source: Node,
    targets: Iterable[Node] | None = None,
) -> tuple[dict[Node, float], dict[Node, Node | None]]:
    """Shortest node-weighted paths from ``source``.

    ``dist[v]`` is the minimum total weight of the nodes on a path from
    ``source`` to ``v``, *excluding* ``w(source)`` but including ``w(v)``.
    Weights must be non-negative.

    With ``targets`` the search stops once every target is settled; as in
    :func:`repro.graphs.shortest_paths.dijkstra`, only settled nodes appear
    in the result (``dist`` and ``parent`` share their key set).
    """
    dist: dict[Node, float] = {}
    parent: dict[Node, Node | None] = {source: None}
    remaining = set(targets) if targets is not None else None
    heap = AddressableHeap()
    heap.push(source, 0.0)
    while heap:
        u, d = heap.pop()
        dist[u] = d
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        for v, _ in graph.neighbors(u):
            if v in dist:
                continue
            wv = weights.get(v, 0.0)
            if wv < 0:
                raise ValueError(f"negative node weight on {v!r}: {wv}")
            if heap.push_or_decrease(v, d + wv):
                parent[v] = u
    if remaining is not None:
        parent = {v: p for v, p in parent.items() if v in dist}
    return dist, parent


def node_weighted_arc_matrix(graph: Graph, weights: Mapping[Node, float],
                             node_list: list[Node]):
    """The node-weighted metric as a dense arc-weight matrix over
    ``node_list``: ``A[a, b] = w(node_list[b])`` when the edge exists,
    ``inf`` otherwise — walking ``a -> b`` pays the weight of ``b``.

    Feeding this to :func:`repro.engine.dense.batched_dijkstra` yields the
    all-sources node-weighted distance matrix in one vectorised sweep
    (identical floats to per-source :func:`node_weighted_dijkstra`).
    """
    import numpy as np

    index = {u: a for a, u in enumerate(node_list)}
    n = len(node_list)
    wvec = np.empty(n)
    for u, a in index.items():
        wu = float(weights.get(u, 0.0))
        if wu < 0:
            raise ValueError(f"negative node weight on {u!r}: {wu}")
        wvec[a] = wu
    arcs = np.full((n, n), np.inf)
    for u in node_list:
        a = index[u]
        for v, _ in graph.neighbors(u):
            b = index[v]
            arcs[a, b] = wvec[b]
    return arcs
