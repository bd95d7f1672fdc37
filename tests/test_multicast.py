"""Tests for repro.wireless.multicast (tree <-> power conversions)."""

import numpy as np
import pytest

from repro.geometry.points import uniform_points
from repro.graphs.steiner import kmb_steiner_tree
from repro.wireless.cost_graph import CostGraph, EuclideanCostGraph
from repro.wireless.multicast import (
    parents_from_tree_edges,
    power_from_parents,
    steiner_heuristic_power,
)


@pytest.fixture()
def net():
    return CostGraph(np.array([
        [0.0, 1.0, 4.0, 9.0],
        [1.0, 0.0, 2.0, 6.0],
        [4.0, 2.0, 0.0, 3.0],
        [9.0, 6.0, 3.0, 0.0],
    ]))


class TestPowerFromParents:
    def test_chain(self, net):
        parents = {0: None, 1: 0, 2: 1, 3: 2}
        pa = power_from_parents(net, parents)
        assert pa.powers.tolist() == [1.0, 2.0, 3.0, 0.0]
        assert pa.reaches(net, 0, [1, 2, 3])

    def test_max_child_edge(self, net):
        parents = {0: None, 1: 0, 2: 0, 3: 0}
        pa = power_from_parents(net, parents)
        assert pa[0] == 9.0  # pays only the farthest child
        assert pa.cost() == 9.0


class TestOrientation:
    def test_parents_from_tree_edges(self):
        parents = parents_from_tree_edges([(0, 1), (1, 2), (0, 3)], source=0)
        assert parents[0] is None and parents[1] == 0
        assert parents[2] == 1 and parents[3] == 0

    def test_steiner_heuristic_cost_leq_tree_weight(self):
        pts = uniform_points(8, 2, rng=0, side=4.0)
        net = EuclideanCostGraph(pts, 2.0)
        tree = kmb_steiner_tree(net.as_graph(), [0, 2, 5, 7])
        pa = steiner_heuristic_power(net, [(u, v) for u, v, _ in tree.edges], 0)
        assert pa.cost() <= tree.cost + 1e-9
        assert pa.reaches(net, 0, [2, 5, 7])

