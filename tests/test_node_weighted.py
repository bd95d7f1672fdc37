"""Tests for repro.graphs.node_weighted (oracle: edge-weight reduction)."""

import networkx as nx
import pytest

from repro.graphs.adjacency import Graph
from repro.graphs.node_weighted import node_weighted_dijkstra
from repro.graphs.random_graphs import as_rng, random_connected_graph


def nw_oracle(g: Graph, weights, source):
    """Node-weighted distances via networkx on the directed reduction
    w'(u -> v) = w(v)."""
    h = nx.DiGraph()
    for u, v, _ in g.edges():
        h.add_edge(u, v, weight=weights.get(v, 0.0))
        h.add_edge(v, u, weight=weights.get(u, 0.0))
    h.add_node(source)
    return nx.single_source_dijkstra_path_length(h, source)


class TestNodeWeightedDijkstra:
    def test_hand_instance(self):
        g = Graph()
        for u, v in [("s", "a"), ("a", "t"), ("s", "b"), ("b", "t")]:
            g.add_edge(u, v, 1.0)
        weights = {"s": 9.0, "a": 5.0, "b": 1.0, "t": 0.0}
        dist, parent = node_weighted_dijkstra(g, weights, "s")
        assert dist["t"] == 1.0  # via b; source weight excluded
        assert dist["a"] == 5.0 and dist["b"] == 1.0 and dist["s"] == 0.0
        assert parent["t"] == "b"

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_reduction_oracle(self, seed):
        rng = as_rng(seed)
        g = random_connected_graph(12, rng)
        weights = {v: float(rng.uniform(0, 5)) for v in g.nodes()}
        dist, _ = node_weighted_dijkstra(g, weights, 0)
        expected = nw_oracle(g, weights, 0)
        assert dist.keys() == expected.keys()
        for v in dist:
            assert dist[v] == pytest.approx(expected[v])

    def test_negative_weight_rejected(self):
        g = Graph()
        g.add_edge(0, 1, 1.0)
        with pytest.raises(ValueError):
            node_weighted_dijkstra(g, {1: -2.0}, 0)

    def test_missing_weights_default_zero(self):
        g = Graph()
        g.add_edge(0, 1, 1.0)
        dist, _ = node_weighted_dijkstra(g, {}, 0)
        assert dist[1] == 0.0

    def test_early_exit(self):
        g = Graph()
        for i in range(9):
            g.add_edge(i, i + 1, 1.0)
        weights = {i: 1.0 for i in range(10)}
        dist, _ = node_weighted_dijkstra(g, weights, 0, targets=[1])
        assert 1 in dist and 9 not in dist

