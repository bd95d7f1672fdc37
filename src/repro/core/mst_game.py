"""The minimum-spanning-tree game and the Bird allocation.

The paper's section 1.1.1 grounds its Steiner cost sharing in the classic
MST-game literature (Bird [5]; Granot-Huberman [23, 24]; Kent &
Skorin-Kapov [30, 31]).  This module implements that substrate explicitly:

* the *MST game* over a wireless network: coalition ``R`` pays the MST
  weight of the metric closure over ``R + {source}`` (exactly the quantity
  the Jain-Vazirani shares distribute);
* the **Bird allocation**: rooted at the source, every terminal pays the
  closure-MST edge connecting it to its parent.  Bird's theorem: this
  allocation is always in the core of the MST game — which our tests
  certify — yet it is *not* cross-monotonic, which is precisely why the
  paper needs the Kent/Skorin-Kapov/JV machinery instead of Bird's rule to
  get a group-strategyproof mechanism.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.engine.closure import TerminalClosure
from repro.engine.moats import closure_mst, moat_mst_weight
from repro.mechanism.base import Agent
from repro.wireless.cost_graph import CostGraph


class MSTGame:
    """The metric-closure MST game rooted at the source.

    Coalitions are priced on the closure-MST kernel the Jain-Vazirani
    shares use (:func:`~repro.engine.moats.closure_mst`), so ``cost(R)``
    equals ``JVSteinerShares.closure_mst_weight(R)`` exactly.
    """

    def __init__(self, network: CostGraph, source: int) -> None:
        self.network = network
        self.source = source
        self.closure = TerminalClosure.all_stations(network)

    def cost(self, R: Iterable[Agent]) -> float:
        """MST weight of the metric closure over ``R + {source}``."""
        return moat_mst_weight(self.closure, self.source, sorted(set(R) - {self.source}))

    def mst_edges(self, R: Iterable[Agent]) -> list[tuple[int, int, float]]:
        """The closure-MST edges ``(u, v, w)`` in Kruskal acceptance
        order, ``u`` the earlier of the two in ``[source, *sorted(R)]``."""
        pts = [self.source, *sorted(set(R) - {self.source})]
        return [(pts[i], pts[j], w)
                for i, j, w in closure_mst(self.closure.submatrix(pts), pts)]

    def bird_allocation(self, R: Iterable[Agent]) -> dict[Agent, float]:
        """Bird's rule: each terminal pays its parent edge in the rooted MST.

        Always a core allocation of the MST game (Bird 1976) and exactly
        budget balanced; *not* cross-monotonic in general.
        """
        R = sorted(set(R) - {self.source})
        if not R:
            return {}
        edges = self.mst_edges(R)
        # Orient the MST away from the source.
        adjacency: dict[int, list[tuple[int, float]]] = {}
        for u, v, w in edges:
            adjacency.setdefault(u, []).append((v, w))
            adjacency.setdefault(v, []).append((u, w))
        shares: dict[Agent, float] = {}
        seen = {self.source}
        stack = [self.source]
        while stack:
            x = stack.pop()
            for y, w in adjacency.get(x, []):
                if y in seen:
                    continue
                seen.add(y)
                shares[y] = w  # y pays the edge to its parent x
                stack.append(y)
        return shares
