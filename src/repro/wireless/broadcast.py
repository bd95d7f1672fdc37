"""Minimum-energy broadcast (MEBT): heuristics and exact specialisations.

Broadcast is multicast with ``R = S \\ {s}``.  The MST heuristic is the
algorithm whose approximation ratio drives the paper's Lemmas 3.4/3.5
(``3**d - 1`` in d dimensions, improved to 6 for d = 2 by Ambuehl [1]).
"""

from __future__ import annotations

from repro.graphs.mst import prim_mst
from repro.wireless.cost_graph import CostGraph
from repro.wireless.memt import bip_broadcast  # noqa: F401 (re-export)
from repro.wireless.multicast import power_from_parents
from repro.wireless.power import PowerAssignment


def mst_broadcast(network: CostGraph, source: int) -> PowerAssignment:
    """MST heuristic [50]: tune powers to implement the cost-graph MST
    oriented away from the source (vectorised Prim on the dense matrix)."""
    parents: dict[int, int | None] = {source: None}
    for p, c, _ in prim_mst(network.as_dense(), root=source):
        parents[c] = p
    return power_from_parents(network, parents)

