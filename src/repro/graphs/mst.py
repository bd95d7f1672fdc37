"""Minimum spanning trees: Kruskal (with merge trace) and Prim.

The Kruskal *merge trace* — the sequence of (weight, components-merged)
events — is the backbone of the Jain-Vazirani cross-monotonic cost shares
(:mod:`repro.core.jv_steiner`): interpreting edge weight as time, every
component not containing the source accrues cost at unit rate between merge
events, and ``sum of accruals == MST weight`` exactly.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterable, Sequence
from dataclasses import dataclass

from repro.graphs.addressable_heap import AddressableHeap
from repro.graphs.adjacency import Graph
from repro.graphs.disjoint_set import DisjointSet

Node = Hashable


@dataclass(frozen=True)
class MergeEvent:
    """One Kruskal merge: at time ``weight`` the components of ``u`` and ``v``
    (snapshotted as frozensets *before* the merge) become one."""

    weight: float
    u: Node
    v: Node
    component_u: frozenset
    component_v: frozenset


def kruskal_mst(
    graph: Graph, *, trace: bool = False
) -> tuple[list[tuple[Node, Node, float]], list[MergeEvent]]:
    """Kruskal's algorithm.

    Returns ``(edges, events)``; ``events`` is empty unless ``trace=True``.
    If the graph is disconnected the result is a minimum spanning forest.
    Ties are broken by the (u, v) representation order for determinism.
    """
    edges = sorted(graph.edges(), key=lambda e: (e[2], _sort_key(e[0]), _sort_key(e[1])))
    dsu = DisjointSet(graph.nodes())
    tree: list[tuple[Node, Node, float]] = []
    events: list[MergeEvent] = []
    for u, v, w in edges:
        if dsu.connected(u, v):
            continue
        if trace:
            events.append(
                MergeEvent(w, u, v, frozenset(dsu.members(u)), frozenset(dsu.members(v)))
            )
        dsu.union(u, v)
        tree.append((u, v, w))
        if dsu.n_components == 1:
            break
    return tree, events


def kruskal_complete(
    points: Sequence[Node],
    weight: Callable[[Node, Node], float],
    *,
    trace: bool = False,
) -> tuple[list[tuple[Node, Node, float]], list[MergeEvent]]:
    """Kruskal on the complete graph over ``points`` with ``weight(u, v)``.

    This is the form used on metric closures (JV shares, KMB Steiner step 2)
    where materialising a :class:`Graph` would be wasteful.
    """
    g = Graph()
    g.add_nodes(points)
    pts = list(points)
    for i, u in enumerate(pts):
        for v in pts[i + 1 :]:
            g.add_edge(u, v, weight(u, v))
    return kruskal_mst(g, trace=trace)


def prim_mst(graph: Graph, root: Node | None = None) -> list[tuple[Node, Node, float]]:
    """Prim's algorithm from ``root`` (default: an arbitrary node).

    Only the component containing ``root`` is spanned; a disconnected graph
    therefore yields the MST of that component.
    Edges are returned as ``(parent, child, w)`` in attachment order.
    Array-backed graphs (:class:`~repro.engine.dense.ArrayGraph`) run the
    vectorised masked-min kernel; the tree can differ from the heap path
    only on exact weight ties (same total weight either way).
    """
    if len(graph) == 0:
        return []
    if root is None:
        root = next(iter(graph))
    from repro.engine.dense import ArrayGraph

    if isinstance(graph, ArrayGraph):
        return graph.prim_arrays(int(root))
    in_tree = {root}
    attach: dict[Node, Node] = {}
    heap = AddressableHeap()
    for v, w in graph.neighbors(root):
        heap.push(v, w)
        attach[v] = root
    tree: list[tuple[Node, Node, float]] = []
    while heap:
        u, w = heap.pop()
        in_tree.add(u)
        tree.append((attach[u], u, w))
        for v, wv in graph.neighbors(u):
            if v in in_tree:
                continue
            if heap.push_or_decrease(v, wv):
                attach[v] = u
    return tree


def mst_weight(edges: Iterable[tuple[Node, Node, float]]) -> float:
    return sum(w for _, _, w in edges)


def _sort_key(node: Node) -> str:
    return repr(node)
