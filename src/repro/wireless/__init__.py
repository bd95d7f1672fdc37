"""Wireless-network substrate: the paper's model of section 1.

A *symmetric wireless network* is a complete cost graph over stations
``0..n-1`` with a symmetric transmission cost ``c(i, j)``; a power
assignment ``pi`` implements arc ``i -> j`` iff ``pi[i] >= c(i, j)``; its
cost is ``sum(pi)``.  The *Euclidean* special case has
``c(i, j) = dist(i, j) ** alpha`` for stations in ``R^d``.
"""

from repro.wireless.alpha_one import optimal_alpha_one_cost, optimal_alpha_one_power
from repro.wireless.broadcast import bip_broadcast, mst_broadcast
from repro.wireless.cost_graph import CostGraph, EuclideanCostGraph
from repro.wireless.line import optimal_line_multicast
from repro.wireless.memt import (
    bip_multicast,
    mst_multicast,
    optimal_multicast,
    optimal_multicast_cost,
    spt_multicast,
    steiner_multicast,
)
from repro.wireless.multicast import power_from_parents, steiner_heuristic_power
from repro.wireless.power import PowerAssignment
from repro.wireless.universal_tree import UniversalTree

__all__ = [
    "CostGraph",
    "EuclideanCostGraph",
    "PowerAssignment",
    "UniversalTree",
    "bip_broadcast",
    "bip_multicast",
    "mst_broadcast",
    "mst_multicast",
    "optimal_alpha_one_cost",
    "optimal_alpha_one_power",
    "optimal_line_multicast",
    "optimal_multicast",
    "optimal_multicast_cost",
    "power_from_parents",
    "spt_multicast",
    "steiner_heuristic_power",
    "steiner_multicast",
]
