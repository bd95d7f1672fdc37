"""Lightweight adjacency-map graph containers.

These are deliberately small: the algorithms in :mod:`repro.graphs` only
need neighbour iteration, edge weights and node bookkeeping.  Nodes may be
any hashable object; edge data is a single float weight by default but any
mapping of attributes is accepted.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Iterator
from typing import Any

Node = Hashable


class Graph:
    """Undirected graph with at most one edge per node pair.

    Parallel edges collapse to the cheapest weight on insertion, which is
    the behaviour every algorithm in this package wants (all of them are
    shortest/lightest-structure computations).
    """

    directed = False

    def __init__(self) -> None:
        self._adj: dict[Node, dict[Node, float]] = {}

    # -- construction -----------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Insert ``node`` (idempotent)."""
        self._adj.setdefault(node, {})

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Insert edge ``{u, v}``; keeps the minimum weight on duplicates."""
        if u == v:
            raise ValueError(f"self-loops are not supported (node {u!r})")
        self.add_node(u)
        self.add_node(v)
        current = self._adj[u].get(v)
        if current is None or weight < current:
            self._adj[u][v] = weight
            self._adj[v][u] = weight

    def remove_node(self, node: Node) -> None:
        """Delete ``node`` and every incident edge."""
        for neighbour in list(self._adj[node]):
            del self._adj[neighbour][node]
        del self._adj[node]

    def remove_edge(self, u: Node, v: Node) -> None:
        del self._adj[u][v]
        del self._adj[v][u]

    # -- queries ----------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._adj

    def __len__(self) -> int:
        return len(self._adj)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._adj)

    def nodes(self) -> list[Node]:
        return list(self._adj)

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._adj and v in self._adj[u]

    def weight(self, u: Node, v: Node) -> float:
        return self._adj[u][v]

    def neighbors(self, node: Node) -> Iterator[tuple[Node, float]]:
        """Yield ``(neighbour, weight)`` pairs."""
        return iter(self._adj[node].items())

    def degree(self, node: Node) -> int:
        return len(self._adj[node])

    def edges(self) -> Iterator[tuple[Node, Node, float]]:
        """Yield each undirected edge exactly once as ``(u, v, w)``."""
        seen: set[frozenset[Any]] = set()
        for u, nbrs in self._adj.items():
            for v, w in nbrs.items():
                key = frozenset((u, v))
                if key not in seen:
                    seen.add(key)
                    yield u, v, w

    def number_of_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adj.values()) // 2

    def total_weight(self) -> float:
        return sum(w for _, _, w in self.edges())

    # -- derived graphs ---------------------------------------------------
    def copy(self) -> "Graph":
        g = Graph()
        g._adj = {u: dict(nbrs) for u, nbrs in self._adj.items()}
        return g

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """Induced subgraph on ``nodes``, in this graph's node and
        neighbour order whatever order ``nodes`` iterates in (a set of
        string-tagged nodes iterates differently in every process)."""
        keep = set(nodes)
        g = Graph()
        g.add_nodes(u for u in self._adj if u in keep)
        for u in g.nodes():
            for v, w in self._adj[u].items():
                if v in keep:
                    g.add_edge(u, v, w)
        return g


class DiGraph:
    """Directed graph with at most one arc per ordered node pair."""

    directed = True

    def __init__(self) -> None:
        self._succ: dict[Node, dict[Node, float]] = {}
        self._pred: dict[Node, dict[Node, float]] = {}

    # -- construction -----------------------------------------------------
    def add_node(self, node: Node) -> None:
        self._succ.setdefault(node, {})
        self._pred.setdefault(node, {})

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        for node in nodes:
            self.add_node(node)

    def add_edge(self, u: Node, v: Node, weight: float = 1.0) -> None:
        """Insert arc ``u -> v``; keeps the minimum weight on duplicates."""
        if u == v:
            raise ValueError(f"self-loops are not supported (node {u!r})")
        self.add_node(u)
        self.add_node(v)
        current = self._succ[u].get(v)
        if current is None or weight < current:
            self._succ[u][v] = weight
            self._pred[v][u] = weight

    def remove_edge(self, u: Node, v: Node) -> None:
        del self._succ[u][v]
        del self._pred[v][u]

    def remove_node(self, node: Node) -> None:
        for v in list(self._succ[node]):
            del self._pred[v][node]
        for u in list(self._pred[node]):
            del self._succ[u][node]
        del self._succ[node]
        del self._pred[node]

    # -- queries ----------------------------------------------------------
    def __contains__(self, node: Node) -> bool:
        return node in self._succ

    def __len__(self) -> int:
        return len(self._succ)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succ)

    def nodes(self) -> list[Node]:
        return list(self._succ)

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._succ and v in self._succ[u]

    def weight(self, u: Node, v: Node) -> float:
        return self._succ[u][v]

    def successors(self, node: Node) -> Iterator[tuple[Node, float]]:
        return iter(self._succ[node].items())

    def predecessors(self, node: Node) -> Iterator[tuple[Node, float]]:
        return iter(self._pred[node].items())

    def out_degree(self, node: Node) -> int:
        return len(self._succ[node])

    def in_degree(self, node: Node) -> int:
        return len(self._pred[node])

    def edges(self) -> Iterator[tuple[Node, Node, float]]:
        for u, nbrs in self._succ.items():
            for v, w in nbrs.items():
                yield u, v, w

    def number_of_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._succ.values())

    def total_weight(self) -> float:
        return sum(w for _, _, w in self.edges())

    def copy(self) -> "DiGraph":
        g = DiGraph()
        g._succ = {u: dict(nbrs) for u, nbrs in self._succ.items()}
        g._pred = {u: dict(nbrs) for u, nbrs in self._pred.items()}
        return g

    def to_undirected(self) -> Graph:
        """Forget orientations (used for weak-connectivity checks)."""
        g = Graph()
        g.add_nodes(self.nodes())
        for u, v, w in self.edges():
            g.add_edge(u, v, w)
        return g
