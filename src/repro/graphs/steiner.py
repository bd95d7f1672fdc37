"""Edge-weighted Steiner trees.

Three tools the paper's section 3.2 machinery needs:

* :func:`metric_closure` — shortest-path distances between the terminals
  (a witness path is rebuilt from the predecessors only when asked), the
  space in which both the KMB approximation and the Jain-Vazirani cost
  shares live;
* :func:`kmb_steiner_tree` — the classic Kou-Markowsky-Berman
  2(1-1/k)-approximation [34 in the paper].  Its closure MST is the JV
  shares' kernel (:func:`repro.engine.moats.closure_mst`), and it builds
  on a closure the caller already holds (a session's
  :class:`~repro.engine.closure.TerminalClosure`), expanding only the
  ``k - 1`` MST edges into paths;
* :func:`dreyfus_wagner` — the exact O(3^k n) dynamic program, used as the
  optimum oracle when validating the approximation and budget-balance
  factors.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.engine.backend import as_array_backend
from repro.engine.closure import TerminalClosure
from repro.engine.dense import ArrayGraph
from repro.engine.moats import closure_mst
from repro.graphs.adjacency import Graph
from repro.graphs.mst import prim_mst
from repro.graphs.shortest_paths import all_pairs_dijkstra, dijkstra, reconstruct_path

Node = Hashable


def _all_pairs_fast(graph: Graph | ArrayGraph) -> dict[Node, dict[Node, float]]:
    """All-pairs distances, coerced onto the array backend when the node
    labels allow it (``0..n-1`` ints).  Distance-only consumers — the
    Dreyfus-Wagner programs below — get identical floats either way, so
    the coercion is pure speedup with no tie sensitivity."""
    arr = as_array_backend(graph, prefer="auto")
    return all_pairs_dijkstra(graph if arr is None else arr)


class MetricClosure:
    """Terminal-to-terminal shortest distances over any node labels, with
    a witness path rebuilt only when asked.

    ``matrix[a, b]`` is the distance from ``terminals[a]`` to
    ``terminals[b]``, and ``path(u, v)`` returns one shortest ``u -> v``
    path.  On an array graph both come from a
    :class:`~repro.engine.closure.TerminalClosure` (its rows and its
    predecessor rows); a dict graph keeps each terminal's Dijkstra
    predecessor map.
    """

    def __init__(self, terminals: Sequence[Node], matrix: np.ndarray,
                 path: Callable[[Node, Node], list[Node]]) -> None:
        self.terminals = tuple(terminals)
        self.matrix = matrix
        self.path = path
        self._index = {t: a for a, t in enumerate(self.terminals)}

    @property
    def distance(self) -> dict[Node, dict[Node, float]]:
        """``distance[u][v]`` for every ordered pair of distinct terminals."""
        return {u: {v: float(self.matrix[a, b])
                    for b, v in enumerate(self.terminals) if b != a}
                for a, u in enumerate(self.terminals)}

    def dist(self, u: Node, v: Node) -> float:
        return 0.0 if u == v else float(self.matrix[self._index[u], self._index[v]])

    def submatrix(self, pts: Sequence[Node]) -> np.ndarray:
        """The distance block among ``pts`` (rows are the sources)."""
        idx = [self._index[p] for p in pts]
        return self.matrix[np.ix_(idx, idx)]


def metric_closure(graph: Graph | ArrayGraph, terminals: Sequence[Node]) -> MetricClosure:
    """Shortest-path closure restricted to ``terminals``.

    Array-backed graphs run every terminal's Dijkstra in one lockstep
    sweep (:func:`repro.engine.dense.batched_dijkstra`); dict graphs run
    one early-exit heap Dijkstra per terminal.  Distances agree exactly;
    witness paths may differ only between equally-short alternatives.
    Raises ``ValueError`` when two terminals are disconnected.
    """
    terminals = list(dict.fromkeys(terminals))
    if isinstance(graph, ArrayGraph) and hasattr(graph, "matrix"):
        idx = [int(t) for t in terminals]
        rows = TerminalClosure(graph.n, idx, *graph.metric_closure_arrays(idx))
        matrix, path = rows.submatrix(idx), rows.path
    else:
        matrix = np.empty((len(terminals), len(terminals)))
        parents = {}
        targets = set(terminals)
        for a, t in enumerate(terminals):
            dist, parents[t] = dijkstra(graph, t, targets=targets)
            matrix[a] = [dist.get(other, np.inf) for other in terminals]
        path = lambda u, v: reconstruct_path(parents[u], v)
    unreachable = np.argwhere(~np.isfinite(matrix))
    if len(unreachable):
        a, b = unreachable[0]
        raise ValueError(
            f"terminals {terminals[a]!r} and {terminals[b]!r} are disconnected")
    return MetricClosure(terminals, matrix, path)


@dataclass(frozen=True)
class SteinerTree:
    """A Steiner tree as an explicit edge set over the original graph."""

    edges: tuple[tuple[Node, Node, float], ...]
    cost: float
    nodes: frozenset

    def as_graph(self) -> Graph:
        g = Graph()
        g.add_nodes(self.nodes)
        for u, v, w in self.edges:
            g.add_edge(u, v, w)
        return g


def kmb_steiner_tree(graph: Graph | ArrayGraph, terminals: Sequence[Node], *,
                     closure=None) -> SteinerTree:
    """Kou-Markowsky-Berman 2-approximate minimum Steiner tree.

    Steps: MST of the metric closure; expand closure edges into shortest
    paths; MST of the expanded subgraph; prune non-terminal leaves.

    ``closure`` is a shortest-path closure covering ``terminals`` that the
    caller already holds — a :class:`~repro.engine.closure.TerminalClosure`
    (as a :class:`~repro.api.MulticastSession` keeps) or a
    :class:`MetricClosure`; without one, :func:`metric_closure` builds it.
    Step 1 is :func:`repro.engine.moats.closure_mst`, Kruskal's tree and
    tie-breaks, and only its ``k - 1`` edges are expanded into paths.
    Raises ``ValueError`` when two terminals are disconnected.
    """
    terminals = list(dict.fromkeys(terminals))
    if not terminals:
        return SteinerTree((), 0.0, frozenset())
    if len(terminals) == 1:
        return SteinerTree((), 0.0, frozenset(terminals))
    if closure is None:
        closure = metric_closure(graph, terminals)

    expanded = Graph()
    expanded.add_nodes(terminals)
    for i, j, _ in closure_mst(closure.submatrix(terminals), terminals):
        path = closure.path(terminals[i], terminals[j])
        for a, b in zip(path, path[1:]):
            expanded.add_edge(a, b, graph.weight(a, b))
    return pruned_spanning_tree(expanded, terminals)


def pruned_spanning_tree(expanded: Graph, terminals: Sequence[Node]) -> SteinerTree:
    """The last two steps shared by KMB and Mehlhorn: the MST of the
    expanded subgraph (Prim from ``terminals[0]``), then non-terminal
    leaves pruned until none is left."""
    tree_edges = prim_mst(expanded, root=terminals[0])
    tree = Graph()
    tree.add_nodes(expanded.nodes())
    for a, b, w in tree_edges:
        tree.add_edge(a, b, w)

    # Prune non-terminal leaves until fixpoint.
    terminal_set = set(terminals)
    changed = True
    while changed:
        changed = False
        for node in list(tree.nodes()):
            if node not in terminal_set and tree.degree(node) <= 1:
                tree.remove_node(node)
                changed = True

    edges = tuple(sorted(tree.edges(), key=lambda e: (repr(e[0]), repr(e[1]))))
    return SteinerTree(edges, sum(w for _, _, w in edges), frozenset(tree.nodes()))


def dreyfus_wagner(graph: Graph, terminals: Sequence[Node]) -> float:
    """Exact minimum Steiner tree cost (Dreyfus-Wagner dynamic program).

    Exponential in ``len(terminals)`` — intended as a small-instance oracle.
    """
    terminals = list(dict.fromkeys(terminals))
    k = len(terminals)
    if k <= 1:
        return 0.0
    if k == 2:
        apsp = _all_pairs_fast(graph)
        return apsp[terminals[0]].get(terminals[1], float("inf"))
    table, index = _dreyfus_wagner_table(graph, terminals[:-1])
    return table[(1 << (k - 1)) - 1][index[terminals[-1]]]


def steiner_costs_all_subsets(
    graph: Graph, terminals: Sequence[Node], root: Node
) -> dict[frozenset, float]:
    """Exact Steiner cost of ``{root} + Q`` for *every* subset ``Q`` of
    ``terminals`` from a single Dreyfus-Wagner table.

    This is the ``C*`` oracle of the Fig. 2 (empty core) experiment: one DP
    run prices all 2^k coalitions.
    """
    terminals = list(dict.fromkeys(terminals))
    if root in terminals:
        raise ValueError("root must not be a terminal")
    table, index = _dreyfus_wagner_table(graph, terminals)
    root_i = index[root]
    out: dict[frozenset, float] = {frozenset(): 0.0}
    for mask in range(1, 1 << len(terminals)):
        Q = frozenset(t for i, t in enumerate(terminals) if mask >> i & 1)
        out[Q] = table[mask][root_i]
    return out


def _dreyfus_wagner_table(
    graph: Graph, base: Sequence[Node]
) -> tuple[list[list[float]], dict[Node, int]]:
    """The DW table ``S[mask][v]`` = min cost tree spanning ``base[mask] + v``."""
    nodes = graph.nodes()
    index = {v: i for i, v in enumerate(nodes)}
    apsp = _all_pairs_fast(graph)
    inf = float("inf")

    def d(u: Node, v: Node) -> float:
        return apsp[u].get(v, inf)

    m = len(base)
    S = [[inf] * len(nodes) for _ in range(1 << m)]
    S[0] = [0.0] * len(nodes)
    for i, t in enumerate(base):
        row = S[1 << i]
        for v in nodes:
            row[index[v]] = d(t, v)

    for mask in range(1, 1 << m):
        if mask & (mask - 1) == 0:
            continue  # singletons already initialised
        row = S[mask]
        # Merge step: split the terminal set at v.
        low = mask & (-mask)
        sub = (mask - 1) & mask
        while sub:
            if sub & low:  # canonical split: the low bit stays in `sub`
                other = mask ^ sub
                rs, ro = S[sub], S[other]
                for vi in range(len(nodes)):
                    cand = rs[vi] + ro[vi]
                    if cand < row[vi]:
                        row[vi] = cand
            sub = (sub - 1) & mask
        # Relax step: move the attachment point along shortest paths.
        # (Dense relaxation via the all-pairs matrix.)
        snapshot = list(row)
        for ui, u in enumerate(nodes):
            su = snapshot[ui]
            if su == inf:
                continue
            du = apsp[u]
            for v, duv in du.items():
                vi = index[v]
                cand = su + duv
                if cand < row[vi]:
                    row[vi] = cand

    return S, index
