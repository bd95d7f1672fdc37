"""Tests for repro.graphs.mst (networkx as oracle) + merge-trace invariants."""

import networkx as nx
import pytest

from repro.graphs.adjacency import Graph
from repro.graphs.mst import kruskal_complete, kruskal_mst, mst_weight, prim_mst
from repro.graphs.random_graphs import as_rng, random_connected_graph


def to_nx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.nodes())
    for u, v, w in g.edges():
        h.add_edge(u, v, weight=w)
    return h


@pytest.mark.parametrize("seed", range(6))
def test_kruskal_prim_boruvka_agree_with_networkx(seed):
    g = random_connected_graph(14, rng=seed)
    expected = nx.minimum_spanning_tree(to_nx(g)).size(weight="weight")
    k_edges, _ = kruskal_mst(g)
    assert mst_weight(k_edges) == pytest.approx(expected)
    assert mst_weight(prim_mst(g, root=0)) == pytest.approx(expected)
    assert len(k_edges) == len(g) - 1


def test_disconnected_graph_gives_forest():
    g = Graph()
    g.add_edge(0, 1, 1.0)
    g.add_edge(2, 3, 2.0)
    edges, _ = kruskal_mst(g)
    assert len(edges) == 2
    assert mst_weight(edges) == 3.0
    # Prim spans only the root's component.
    assert len(prim_mst(g, root=0)) == 1


def test_empty_and_singleton():
    assert prim_mst(Graph()) == []
    g = Graph()
    g.add_node("only")
    assert prim_mst(g) == []
    edges, _ = kruskal_mst(g)
    assert edges == []


class TestMergeTrace:
    def test_trace_reconstructs_weight_and_partitions(self):
        g = random_connected_graph(12, rng=7)
        edges, events = kruskal_mst(g, trace=True)
        assert len(events) == len(edges)
        # Times non-decreasing, components disjoint pre-merge.
        times = [e.weight for e in events]
        assert times == sorted(times)
        for ev in events:
            assert not (ev.component_u & ev.component_v)
            assert ev.u in ev.component_u and ev.v in ev.component_v
        # Total weight equals the integral of (#components - 1):
        # each merge at time t contributes t to sum of weights.
        assert mst_weight(edges) == pytest.approx(sum(times))

    def test_trace_component_sizes_telescope(self):
        g = random_connected_graph(10, rng=3)
        _, events = kruskal_mst(g, trace=True)
        total = 10
        seen = 0
        for ev in events:
            seen += 1
        assert seen == total - 1  # n-1 merges to a single component


class TestKruskalComplete:
    def test_matches_explicit_graph(self):
        rng = as_rng(5)
        pts = list(range(6))
        w = {(i, j): float(rng.uniform(1, 10)) for i in pts for j in pts if i < j}

        def weight(u, v):
            return w[(u, v)] if u < v else w[(v, u)]

        tree, _ = kruskal_complete(pts, weight)
        g = Graph()
        for i in pts:
            for j in pts:
                if i < j:
                    g.add_edge(i, j, weight(i, j))
        expected, _ = kruskal_mst(g)
        assert mst_weight(tree) == pytest.approx(mst_weight(expected))
        assert len(tree) == 5
