"""Mehlhorn's 2-approximate Steiner tree from one multi-source Dijkstra.

The KMB pipeline (:func:`repro.graphs.steiner.kmb_steiner_tree`) prices the
full terminal metric closure — ``k`` shortest-path trees plus an ``O(k^2)``
complete graph — before it ever builds a tree.  Mehlhorn's observation
[Inf. Process. Lett. 27 (1988)] is that one *multi-source* Dijkstra pass
suffices: grow all terminals' shortest-path regions at once (a Voronoi
partition of the graph), then connect the regions through an *auxiliary
terminal graph* with one edge per region-adjacent terminal pair

    w'(s(u), s(v)) = min over bridges (u, v):  d(u) + w(u, v) + d(v),

where ``s(x)`` is the terminal owning ``x`` and ``d(x)`` its distance.
Every auxiliary edge is realisable as a walk in the original graph, and the
auxiliary MST weighs no more than the closure MST, so expanding it and
pruning yields the same 2(1-1/k) guarantee at ``O(m + n log n)`` cost —
the kernel that makes n=10^3..10^4 Steiner instances routine.

The auxiliary metric is also the substrate of the ``*-approx`` mechanism
family (:mod:`repro.core.approx_mechanisms`): its sparse edge list feeds
the moat process directly, no closure matrix required.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.engine.backend import as_array_backend
from repro.engine.dense import ArrayGraph, DenseGraph
from repro.graphs.adjacency import Graph
from repro.graphs.disjoint_set import DisjointSet
from repro.graphs.steiner import SteinerTree, pruned_spanning_tree


@dataclass(frozen=True)
class AuxiliaryMetric:
    """The Voronoi partition and auxiliary terminal graph of one
    multi-source pass.

    ``edges[e] = (a, b, w)`` are *indices into* ``terminals`` with
    ``a < b``; ``bridges[e] = (u, v)`` is the graph edge realising the
    auxiliary edge (the walk is ``terminals[a] -> .. -> u -> v -> .. ->
    terminals[b]`` along Voronoi parent chains).  ``dist`` / ``nearest`` /
    ``parent`` are the per-node multi-source Dijkstra fields.
    """

    terminals: tuple[int, ...]
    edges: tuple[tuple[int, int, float], ...]
    bridges: tuple[tuple[int, int], ...]
    dist: np.ndarray
    nearest: np.ndarray
    parent: np.ndarray

    @property
    def k(self) -> int:
        return len(self.terminals)

    def spanning_mst(self) -> tuple[list[int], float]:
        """Kruskal MST of the auxiliary graph as ``(edge_ids, total)`` —
        ids index into ``edges`` / ``bridges``, accumulated in acceptance
        order.  Raises if the terminals are disconnected.  Tie-breaking
        matches :func:`repro.graphs.mst.kruskal_mst`
        (``(w, repr(u), repr(v))`` on the terminal labels)."""
        order = sorted(
            range(len(self.edges)),
            key=lambda e: (
                self.edges[e][2],
                repr(self.terminals[self.edges[e][0]]),
                repr(self.terminals[self.edges[e][1]]),
            ),
        )
        dsu = DisjointSet(range(self.k))
        total = 0.0
        accepted: list[int] = []
        for e in order:
            a, b, w = self.edges[e]
            if dsu.union(a, b):
                accepted.append(e)
                total += w
                if dsu.n_components == 1:
                    break
        if len(accepted) != self.k - 1:
            raise ValueError("terminals are disconnected")
        return accepted, total


def mehlhorn_aux_metric(graph: Graph | ArrayGraph, terminals: Sequence[int]) -> AuxiliaryMetric:
    """One multi-source Dijkstra pass + the auxiliary terminal graph.

    ``graph`` must be array-coercible (integer labels ``0..n-1``); dense
    backends extract all bridge candidates in one vectorised pass, sparse
    backends stream the edge list once.  An array graph runs as it is;
    a dict graph is coerced by ``as_array_backend(prefer='auto')``, which
    densifies small or dense graphs and keeps large sparse ones on CSR.
    """
    arr = as_array_backend(graph, prefer="auto")
    if arr is None:
        raise ValueError(
            "mehlhorn kernels need integer station labels 0..n-1; "
            "relabel the graph or use kmb_steiner_tree"
        )
    terminals = [int(t) for t in dict.fromkeys(int(t) for t in terminals)]
    dist, nearest, parent = arr.multi_source_arrays(terminals)
    pos = {t: i for i, t in enumerate(terminals)}
    if isinstance(arr, DenseGraph):
        edges, bridges = _aux_edges_dense(arr.matrix, dist, nearest, pos)
    else:
        edges, bridges = _aux_edges_stream(arr, dist, nearest, pos)
    return AuxiliaryMetric(
        tuple(terminals), tuple(edges), tuple(bridges), dist, nearest, parent
    )


def _aux_edges_dense(w, dist, nearest, pos):
    """All bridge candidates ``d(u) + w(u, v) + d(v)`` in one array pass,
    reduced to the minimum per unordered region pair (ties keep the
    row-major-first bridge — deterministic)."""
    reached = nearest >= 0
    cross = (
        np.isfinite(w)
        & (nearest[:, None] != nearest[None, :])
        & reached[:, None]
        & reached[None, :]
    )
    iu, iv = np.nonzero(np.triu(cross, 1) | np.triu(cross.T, 1))
    if len(iu) == 0:
        return [], []
    wts = dist[iu] + w[iu, iv] + dist[iv]
    su = np.fromiter((pos[int(s)] for s in nearest[iu]), dtype=np.int64, count=len(iu))
    sv = np.fromiter((pos[int(s)] for s in nearest[iv]), dtype=np.int64, count=len(iv))
    lo, hi = np.minimum(su, sv), np.maximum(su, sv)
    key = lo * len(pos) + hi
    order = np.lexsort((wts, key))  # by region pair, then weight (stable)
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = key[order[1:]] != key[order[:-1]]
    sel = order[keep]
    edges = [(int(lo[e]), int(hi[e]), float(wts[e])) for e in sel]
    bridges = [(int(iu[e]), int(iv[e])) for e in sel]
    return edges, bridges


def _aux_edges_stream(arr, dist, nearest, pos):
    """Streaming variant for sparse backends: one pass over the edge list,
    keeping the strictly-cheapest bridge per region pair (iteration order
    of ``edges()`` is deterministic, so ties are too)."""
    best: dict[tuple[int, int], tuple[float, int, int]] = {}
    for u, v, wuv in arr.edges():
        su, sv = int(nearest[u]), int(nearest[v])
        if su == sv or su < 0 or sv < 0:
            continue
        a, b = pos[su], pos[sv]
        if a > b:
            a, b = b, a
        cand = float(dist[u]) + float(wuv) + float(dist[v])
        cur = best.get((a, b))
        if cur is None or cand < cur[0]:
            best[(a, b)] = (cand, int(u), int(v))
    edges = []
    bridges = []
    for (a, b), (wab, u, v) in sorted(best.items()):
        edges.append((a, b, wab))
        bridges.append((u, v))
    return edges, bridges


def mehlhorn_steiner_tree(graph: Graph | ArrayGraph, terminals: Sequence[int]) -> SteinerTree:
    """Mehlhorn's 2(1-1/k)-approximate minimum Steiner tree.

    Steps: multi-source Voronoi pass; MST of the auxiliary terminal graph;
    expand each auxiliary edge into its witness walk (parent chains + the
    bridge edge); MST of the expanded subgraph; prune non-terminal leaves.
    Same :class:`~repro.graphs.steiner.SteinerTree` contract (and edge
    ordering) as :func:`~repro.graphs.steiner.kmb_steiner_tree`; the
    representation is chosen as in :func:`mehlhorn_aux_metric`.
    """
    terminals = list(dict.fromkeys(int(t) for t in terminals))
    if not terminals:
        return SteinerTree((), 0.0, frozenset())
    if len(terminals) == 1:
        return SteinerTree((), 0.0, frozenset(terminals))
    # Coerce a dict graph once: an array graph passes through
    # mehlhorn_aux_metric unchanged, and one that cannot convert makes
    # it raise.
    arr = as_array_backend(graph, prefer="auto")
    aux = mehlhorn_aux_metric(graph if arr is None else arr, terminals)
    mst_ids, _ = aux.spanning_mst()  # raises when terminals are disconnected

    expanded = Graph()
    expanded.add_nodes(terminals)
    for e in mst_ids:
        u, v = aux.bridges[e]
        expanded.add_edge(u, v, arr.weight(u, v))
        for x in (u, v):
            while aux.parent[x] >= 0:
                p = int(aux.parent[x])
                expanded.add_edge(p, x, arr.weight(p, x))
                x = p

    return pruned_spanning_tree(expanded, terminals)
