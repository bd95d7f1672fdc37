"""Tests for repro.graphs.steiner: closure, KMB, Dreyfus-Wagner."""

import networkx as nx
import pytest

from repro.graphs.adjacency import Graph
from repro.graphs.random_graphs import as_rng, random_connected_graph
from repro.graphs.steiner import (
    dreyfus_wagner,
    kmb_steiner_tree,
    metric_closure,
    steiner_costs_all_subsets,
)
from repro.graphs.traversal import is_connected


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.nodes())
    for u, v, w in g.edges():
        h.add_edge(u, v, weight=w)
    return h


class TestMetricClosure:
    def test_matches_networkx(self):
        g = random_connected_graph(10, rng=0)
        terminals = [0, 3, 7]
        closure = metric_closure(g, terminals)
        h = to_nx(g)
        for t in terminals:
            lengths = nx.single_source_dijkstra_path_length(h, t)
            for o in terminals:
                if o != t:
                    assert closure.dist(t, o) == pytest.approx(lengths[o])
        assert closure.dist(0, 0) == 0.0

    def test_paths_are_real_paths(self):
        g = random_connected_graph(10, rng=1)
        closure = metric_closure(g, [0, 5])
        path = closure.path(0, 5)
        assert path[0] == 0 and path[-1] == 5
        total = sum(g.weight(a, b) for a, b in zip(path, path[1:]))
        assert total == pytest.approx(closure.dist(0, 5))

    def test_disconnected_raises(self):
        g = Graph()
        g.add_edge(0, 1, 1.0)
        g.add_node(9)
        with pytest.raises(ValueError):
            metric_closure(g, [0, 9])


class TestKMB:
    def test_known_instance(self):
        # Star where the hub shortcut beats direct terminal connections.
        g = Graph()
        for t in (1, 2, 3):
            g.add_edge(0, t, 1.0)
            g.add_edge(t, t + 10, 5.0)  # decoys
        tree = kmb_steiner_tree(g, [1, 2, 3])
        assert tree.cost == pytest.approx(3.0)
        assert 0 in tree.nodes  # uses the Steiner hub

    @pytest.mark.parametrize("seed", range(6))
    def test_within_2x_of_exact_and_connected(self, seed):
        rng = as_rng(seed)
        g = random_connected_graph(12, rng)
        terminals = sorted(int(t) for t in rng.choice(12, size=4, replace=False))
        tree = kmb_steiner_tree(g, terminals)
        opt = dreyfus_wagner(g, terminals)
        assert opt - 1e-9 <= tree.cost <= 2 * opt + 1e-9
        sub = tree.as_graph()
        assert is_connected(sub)
        assert set(terminals) <= set(sub.nodes())
        # Non-terminal leaves pruned.
        for node in sub.nodes():
            if node not in terminals:
                assert sub.degree(node) >= 2

    def test_trivial_terminal_sets(self):
        g = random_connected_graph(5, rng=0)
        assert kmb_steiner_tree(g, []).cost == 0.0
        assert kmb_steiner_tree(g, [2]).cost == 0.0


class TestDreyfusWagner:
    def test_two_terminals_is_shortest_path(self):
        g = random_connected_graph(10, rng=4)
        import repro.graphs.shortest_paths as sp

        d = sp.dijkstra(g, 0)[0][6]
        assert dreyfus_wagner(g, [0, 6]) == pytest.approx(d)

    def test_exact_on_known_grid(self):
        # 2x3 unit grid; terminals at the corners of one long side.
        g = Graph()
        coords = {(r, c): r * 3 + c for r in range(2) for c in range(3)}
        for (r, c), i in coords.items():
            if c + 1 < 3:
                g.add_edge(i, coords[(r, c + 1)], 1.0)
            if r + 1 < 2:
                g.add_edge(i, coords[(r + 1, c)], 1.0)
        terminals = [coords[(0, 0)], coords[(0, 2)], coords[(1, 1)]]
        assert dreyfus_wagner(g, terminals) == pytest.approx(3.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_networkx_steiner_lower_bound(self, seed):
        """DW must lower-bound the networkx 2-approx and be >= closure-MST/2."""
        rng = as_rng(seed)
        g = random_connected_graph(11, rng)
        terminals = sorted(int(t) for t in rng.choice(11, size=4, replace=False))
        opt = dreyfus_wagner(g, terminals)
        approx = nx.algorithms.approximation.steiner_tree(
            to_nx(g), terminals, weight="weight"
        ).size(weight="weight")
        assert opt <= approx + 1e-9
        assert approx <= 2 * opt + 1e-9


class TestAllSubsets:
    def test_matches_individual_runs(self):
        rng = as_rng(9)
        g = random_connected_graph(10, rng)
        terminals = [1, 4, 7]
        root = 0
        table = steiner_costs_all_subsets(g, terminals, root)
        assert table[frozenset()] == 0.0
        import itertools

        for r in range(1, 4):
            for Q in itertools.combinations(terminals, r):
                expected = dreyfus_wagner(g, [root, *Q])
                assert table[frozenset(Q)] == pytest.approx(expected)

    def test_monotone_in_subsets(self):
        g = random_connected_graph(9, rng=2)
        table = steiner_costs_all_subsets(g, [1, 2, 3], 0)
        for Q, cost in table.items():
            for R, cost_r in table.items():
                if Q <= R:
                    assert cost <= cost_r + 1e-9

    def test_root_must_not_be_terminal(self):
        g = random_connected_graph(5, rng=0)
        with pytest.raises(ValueError):
            steiner_costs_all_subsets(g, [0, 1], 0)
