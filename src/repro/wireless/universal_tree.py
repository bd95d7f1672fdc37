"""Universal broadcast trees (paper section 2.1).

A universal tree ``T(S \\ {s})`` is a fixed directed tree rooted at the
source spanning *all* stations.  For any receiver set ``R`` the multicast
tree ``T(R)`` is the union of the root-to-receiver paths, and the induced
power assignment is ``pi_R(x) = max cost of x's child edges inside T(R)``.
Lemma 2.1: the induced cost function ``C(R) = cost(pi_R)`` is non-decreasing
and submodular — which is what makes the Shapley-value mechanism budget
balanced and the marginal-cost mechanism efficient on this structure.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np

from repro.graphs.mst import prim_mst
from repro.graphs.shortest_paths import dijkstra
from repro.wireless.cost_graph import CostGraph
from repro.wireless.power import PowerAssignment


class UniversalTree:
    """A fixed spanning tree of the network, rooted at the source."""

    def __init__(self, network: CostGraph, source: int,
                 parents: Mapping[int, int | None]) -> None:
        self.network = network
        self.source = source
        self._index = None  # lazily-built flat TreeIndex (see index())
        self.parents: dict[int, int | None] = dict(parents)
        if self.parents.get(source, "missing") is not None:
            raise ValueError("source must map to parent None")
        if set(self.parents) != set(range(network.n)):
            raise ValueError("universal tree must span every station")
        self.children: dict[int, list[int]] = {i: [] for i in range(network.n)}
        for child, parent in self.parents.items():
            if parent is not None:
                self.children[parent].append(child)
        # Sort children by edge cost (the order the water-filling Shapley
        # shares of section 2.1 are defined over).
        for x in self.children:
            self.children[x].sort(key=lambda y: (network.cost(x, y), y))
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        seen = set()
        stack = [self.source]
        while stack:
            x = stack.pop()
            if x in seen:
                raise ValueError("parent map contains a cycle")
            seen.add(x)
            stack.extend(self.children[x])
        if len(seen) != self.network.n:
            raise ValueError("parent map is not a spanning tree rooted at the source")

    # -- constructions -----------------------------------------------------
    KINDS = ("spt", "mst", "star")

    @classmethod
    def build(cls, network: CostGraph, source: int, kind: str = "spt") -> "UniversalTree":
        """Construct a universal tree by kind name — the single home of
        the ``spt``/``mst``/``star`` dispatch (scenario specs, the session
        facade and the experiment runners all route through it)."""
        if kind == "spt":
            return cls.from_shortest_paths(network, source)
        if kind == "mst":
            return cls.from_mst(network, source)
        if kind == "star":
            return cls.star(network, source)
        raise ValueError(f"unknown universal tree kind {kind!r} (want one of {cls.KINDS})")

    @classmethod
    def from_shortest_paths(cls, network: CostGraph, source: int) -> "UniversalTree":
        """Shortest-path tree in the cost graph (the universal tree Penna &
        Ventre [43] use for their O(n)-CO mechanism), from the vectorised
        Dijkstra on the dense cost matrix.  The tests' reference, the dict
        Dijkstra on ``network.as_graph()``, gives the same tree except
        possibly on exact distance ties, where either parent choice
        witnesses the same distances.
        """
        _, parent = dijkstra(network.as_dense(), source)
        return cls(network, source, parent)

    @classmethod
    def from_mst(cls, network: CostGraph, source: int) -> "UniversalTree":
        """Minimum spanning tree of the cost graph, rooted at the source
        (the vectorised Prim on the dense cost matrix)."""
        parents: dict[int, int | None] = {source: None}
        for p, c, _ in prim_mst(network.as_dense(), root=source):
            parents[c] = p
        return cls(network, source, parents)

    @classmethod
    def star(cls, network: CostGraph, source: int) -> "UniversalTree":
        """Every station a direct child of the source (single-hop tree)."""
        parents: dict[int, int | None] = {i: source for i in range(network.n)}
        parents[source] = None
        return cls(network, source, parents)

    # -- multicast restriction ----------------------------------------------
    def path_to_root(self, i: int) -> list[int]:
        path = [i]
        while self.parents[path[-1]] is not None:
            path.append(self.parents[path[-1]])  # type: ignore[arg-type]
        return path

    def subtree_nodes(self, receivers: Iterable[int]) -> set[int]:
        """Nodes of ``T(R)`` (union of root-to-receiver paths, incl. source)."""
        nodes: set[int] = {self.source}
        for r in receivers:
            x: int | None = r
            while x is not None and x not in nodes:
                nodes.add(x)
                x = self.parents[x]
        return nodes

    def power_assignment(self, receivers: Iterable[int]) -> PowerAssignment:
        """``pi_R(x) = max c(x, y)`` over x's children inside ``T(R)``."""
        receivers = set(receivers) - {self.source}
        nodes = self.subtree_nodes(receivers) if receivers else {self.source}
        p = np.zeros(self.network.n)
        for child in nodes:
            parent = self.parents[child]
            if parent is not None:
                p[parent] = max(p[parent], self.network.cost(parent, child))
        return PowerAssignment(p)

    def cost(self, receivers: Iterable[int]) -> float:
        """The induced cost function ``C(R)`` of Lemma 2.1."""
        return self.power_assignment(receivers).cost()

    def agents(self) -> list[int]:
        """All potential receivers (every station but the source)."""
        return [i for i in range(self.network.n) if i != self.source]

    def index(self):
        """Flat array form of the tree (cached) — the representation the
        :mod:`repro.engine.trees` mechanism kernels run on."""
        if self._index is None:
            from repro.engine.trees import TreeIndex

            self._index = TreeIndex(self.network.n, self.source, self.parents,
                                    self.children, self.network.cost)
        return self._index
