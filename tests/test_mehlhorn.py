"""Tests for repro.graphs.mehlhorn (Voronoi-partition 2-approx Steiner).

The paper-level guarantee under test: the tree spans the terminals and
its cost is at most ``2 (1 - 1/k)`` times the optimum, checked against
the exact Dreyfus-Wagner oracle on small instances.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.dense import CSRGraph, DenseGraph
from repro.graphs.adjacency import Graph
from repro.graphs.mehlhorn import mehlhorn_aux_metric, mehlhorn_steiner_tree
from repro.graphs.random_graphs import random_cost_matrix
from repro.graphs.steiner import dreyfus_wagner
from repro.wireless.cost_graph import CostGraph


def random_net(seed, n=9):
    return CostGraph(random_cost_matrix(n, rng=seed))


def path_graph(n):
    g = Graph()
    g.add_nodes(range(n))
    for i in range(n - 1):
        g.add_edge(i, i + 1, 1.0)
    return g


class TestAuxiliaryMetric:
    def test_aux_mst_totals_match_across_backends(self):
        net = random_net(0)
        terminals = [0, 2, 5, 7]
        dense = mehlhorn_aux_metric(net.as_dense(), terminals)
        csr = mehlhorn_aux_metric(
            CSRGraph.from_graph(net.as_graph()), terminals)
        assert np.array_equal(dense.dist, csr.dist)
        assert dense.spanning_mst()[1] == pytest.approx(csr.spanning_mst()[1])

    def test_disconnected_terminals_raise(self):
        g = Graph()
        g.add_nodes(range(4))
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 3, 1.0)
        aux = mehlhorn_aux_metric(g, [0, 3])
        with pytest.raises(ValueError, match="disconnected"):
            aux.spanning_mst()

    def test_arbitrary_labels_rejected(self):
        g = Graph()
        g.add_nodes(["a", "b"])
        g.add_edge("a", "b", 1.0)
        with pytest.raises(ValueError, match="integer station labels"):
            mehlhorn_aux_metric(g, ["a", "b"])

    def test_duplicate_terminals_collapse(self):
        net = random_net(1)
        aux = mehlhorn_aux_metric(net.as_dense(), [0, 3, 3, 0])
        assert aux.terminals == (0, 3)


class TestMehlhornSteinerTree:
    def test_trivial_cases(self):
        net = random_net(2)
        assert mehlhorn_steiner_tree(net.as_dense(), []).cost == 0.0
        single = mehlhorn_steiner_tree(net.as_dense(), [3])
        assert single.cost == 0.0
        assert single.nodes == frozenset([3])

    def test_path_graph_exact(self):
        g = path_graph(6)
        tree = mehlhorn_steiner_tree(g, [0, 5])
        assert tree.cost == pytest.approx(5.0)
        assert tree.nodes == frozenset(range(6))

    def test_tree_is_valid(self):
        net = random_net(3)
        terminals = [0, 2, 4, 6, 8]
        tree = mehlhorn_steiner_tree(net.as_dense(), terminals)
        assert set(terminals) <= set(tree.nodes)
        assert len(tree.edges) == len(tree.nodes) - 1
        g = tree.as_graph()
        from repro.graphs.traversal import is_connected

        assert is_connected(g)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_property_within_2x_of_optimal(self, seed, data):
        n = data.draw(st.integers(5, 9))
        k = data.draw(st.integers(2, min(5, n)))
        net = random_net(seed, n=n)
        terminals = [0, *data.draw(
            st.lists(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1,
                     unique=True))]
        tree = mehlhorn_steiner_tree(net.as_dense(), terminals)
        opt = dreyfus_wagner(net.as_graph(), terminals)
        k_eff = len(set(terminals))
        bound = 2.0 * (1.0 - 1.0 / k_eff) * opt
        assert tree.cost <= bound + 1e-9
        # the auxiliary MST weight backs the same bound and dominates
        # the built (pruned) tree
        aux = mehlhorn_aux_metric(net.as_dense(), terminals)
        _, aux_total = aux.spanning_mst()
        assert aux_total <= bound + 1e-9
        assert tree.cost <= aux_total + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_backends_agree(self, seed):
        net = random_net(seed, n=10)
        terminals = [0, 3, 6, 9]
        t_dense = mehlhorn_steiner_tree(net.as_dense(), terminals)
        t_csr = mehlhorn_steiner_tree(
            CSRGraph.from_graph(net.as_graph()), terminals)
        assert t_dense.cost == pytest.approx(t_csr.cost)

    def test_backend_forced(self):
        g = path_graph(8)
        t_dense = mehlhorn_steiner_tree(DenseGraph.from_graph(g), [0, 7])
        t_csr = mehlhorn_steiner_tree(CSRGraph.from_graph(g), [0, 7])
        assert t_dense.cost == t_csr.cost == pytest.approx(7.0)

    def test_dict_graph_is_converted_once(self, monkeypatch):
        conversions = []
        for cls in (DenseGraph, CSRGraph):
            def counting(graph, _convert=cls.from_graph):
                conversions.append(graph)
                return _convert(graph)
            monkeypatch.setattr(cls, "from_graph", counting)
        tree = mehlhorn_steiner_tree(path_graph(8), [0, 3, 7])
        assert tree.cost == pytest.approx(7.0)
        assert len(conversions) == 1

    def test_dense_graph_passthrough(self):
        net = random_net(4)
        dense = DenseGraph.from_cost_graph(net)
        tree = mehlhorn_steiner_tree(dense, [0, 1, 2])
        assert tree.cost > 0.0
