"""Tests for repro.graphs.shortest_paths (networkx as the oracle)."""

import networkx as nx
import numpy as np
import pytest

from repro.graphs.adjacency import DiGraph, Graph
from repro.graphs.random_graphs import random_connected_graph
from repro.graphs.shortest_paths import (
    all_pairs_dijkstra,
    dijkstra,
    reconstruct_path,
)


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.nodes())
    for u, v, w in g.edges():
        h.add_edge(u, v, weight=w)
    return h


class TestDijkstra:
    def test_hand_instance(self):
        g = Graph()
        for u, v, w in [(0, 1, 1), (1, 2, 2), (0, 2, 4), (2, 3, 1)]:
            g.add_edge(u, v, w)
        dist, parent = dijkstra(g, 0)
        assert dist == {0: 0.0, 1: 1.0, 2: 3.0, 3: 4.0}
        assert reconstruct_path(parent, 3) == [0, 1, 2, 3]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_networkx(self, seed):
        g = random_connected_graph(15, rng=seed)
        dist, _ = dijkstra(g, 0)
        expected = nx.single_source_dijkstra_path_length(to_nx(g), 0)
        assert dist.keys() == expected.keys()
        for v in dist:
            assert dist[v] == pytest.approx(expected[v])

    def test_early_exit_targets(self):
        g = Graph()
        for i in range(9):
            g.add_edge(i, i + 1, 1.0)
        dist, _ = dijkstra(g, 0, targets=[2])
        assert 2 in dist and 9 not in dist  # search stopped early

    def test_negative_weight_rejected(self):
        g = Graph()
        g.add_edge(0, 1, -1.0)
        with pytest.raises(ValueError):
            dijkstra(g, 0)

    def test_directed(self):
        g = DiGraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 1.0)
        g.add_edge(2, 0, 10.0)
        dist, _ = dijkstra(g, 1)
        assert dist == {1: 0.0, 2: 1.0, 0: 11.0}

    def test_unreachable_absent(self):
        g = Graph()
        g.add_edge(0, 1, 1.0)
        g.add_node(5)
        dist, parent = dijkstra(g, 0)
        assert 5 not in dist
        with pytest.raises(KeyError):
            reconstruct_path(parent, 5)


class TestEarlyExitConsistency:
    """Regression tests: the early-exit ``targets`` path must return dist
    and parent over exactly the settled nodes — no provisional parent
    entries that would silently path-reconstruct an unsettled node."""

    def diamond(self):
        # 0 -(1)- 1 -(1)- 3 and 0 -(1)- 2 -(10)- 3: node 2 gets relaxed
        # (hence a provisional parent) before the search stops at 1.
        g = Graph()
        for u, v, w in [(0, 1, 1.0), (0, 2, 1.5), (1, 3, 1.0), (2, 3, 10.0)]:
            g.add_edge(u, v, w)
        return g

    def test_single_target_parent_matches_dist(self):
        dist, parent = dijkstra(self.diamond(), 0, targets=[1])
        assert set(parent) == set(dist) == {0, 1}

    def test_single_target_no_stale_reconstruction(self):
        _, parent = dijkstra(self.diamond(), 0, targets=[1])
        with pytest.raises(KeyError):
            reconstruct_path(parent, 2)  # relaxed but never settled

    def test_target_settled_on_final_pop_is_recorded(self):
        g = self.diamond()
        dist, parent = dijkstra(g, 0, targets=[3])
        assert dist[3] == 2.0
        assert reconstruct_path(parent, 3) == [0, 1, 3]

    def test_single_target_query_matches_full_search(self):
        g = random_connected_graph(20, rng=5)
        full, _ = dijkstra(g, 0)
        for t in (1, 7, 19):
            dist, parent = dijkstra(g, 0, targets=[t])
            assert dist[t] == full[t]
            path = reconstruct_path(parent, t)
            assert path[0] == 0 and path[-1] == t
            assert sum(g.weight(a, b) for a, b in zip(path, path[1:])) == \
                pytest.approx(dist[t])
            assert set(parent) == set(dist)

    def test_target_is_source(self):
        dist, parent = dijkstra(self.diamond(), 0, targets=[0])
        assert dist == {0: 0.0} and parent == {0: None}

    def test_unreachable_target_leaves_consistent_maps(self):
        g = Graph()
        g.add_edge(0, 1, 1.0)
        g.add_node(5)
        dist, parent = dijkstra(g, 0, targets=[5])
        assert 5 not in dist and 5 not in parent
        assert set(parent) == set(dist) == {0, 1}

    def test_node_weighted_mirror(self):
        from repro.graphs.node_weighted import node_weighted_dijkstra

        g = self.diamond()
        weights = {0: 0.0, 1: 1.0, 2: 1.0, 3: 0.0}
        dist, parent = node_weighted_dijkstra(g, weights, 0, targets=[1])
        assert set(parent) == set(dist)

    def test_shortest_path_single_target_regression(self):
        dist, parent = dijkstra(self.diamond(), 0, targets=[3])
        assert reconstruct_path(parent, 3) == [0, 1, 3] and dist[3] == 2.0


class TestHelpers:
    def test_all_pairs_symmetric(self):
        g = random_connected_graph(10, rng=3)
        apsp = all_pairs_dijkstra(g)
        for u in g.nodes():
            for v in g.nodes():
                assert apsp[u][v] == pytest.approx(apsp[v][u])
                assert apsp[u][v] >= 0
        # Triangle inequality holds for shortest-path metrics.
        nodes = g.nodes()
        rng = np.random.default_rng(0)
        for _ in range(50):
            a, b, c = rng.choice(nodes, size=3)
            assert apsp[a][c] <= apsp[a][b] + apsp[b][c] + 1e-9
