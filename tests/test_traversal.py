"""Unit tests for repro.graphs.traversal."""

from repro.graphs.adjacency import DiGraph, Graph
from repro.graphs.traversal import (
    bfs_numbering,
    bfs_order,
    bfs_parents,
    connected_components,
    is_connected,
    reachable_set,
)


def path_graph(n):
    g = Graph()
    for i in range(n - 1):
        g.add_edge(i, i + 1, 1.0)
    return g


class TestBFS:
    def test_order_on_path(self):
        g = path_graph(5)
        assert bfs_order(g, 0) == [0, 1, 2, 3, 4]
        assert bfs_order(g, 2)[0] == 2

    def test_parents_form_tree(self):
        g = path_graph(4)
        g.add_edge(0, 3, 1.0)
        parents = bfs_parents(g, 0)
        assert parents[0] is None
        assert parents[3] == 0  # direct edge found at depth 1
        assert parents[2] in (1, 3)

    def test_numbering_starts_at_zero(self):
        g = path_graph(3)
        numbering = bfs_numbering(g, 0)
        assert numbering == {0: 0, 1: 1, 2: 2}

    def test_unreachable_not_included(self):
        g = Graph()
        g.add_edge(0, 1, 1.0)
        g.add_node(2)
        assert set(bfs_order(g, 0)) == {0, 1}
        assert reachable_set(g, 2) == {2}

    def test_directed_respects_orientation(self):
        g = DiGraph()
        g.add_edge(0, 1, 1.0)
        g.add_edge(2, 1, 1.0)
        assert set(bfs_order(g, 0)) == {0, 1}
        assert set(bfs_order(g, 2)) == {2, 1}


class TestComponents:
    def test_connected_components(self):
        g = path_graph(3)
        g.add_edge(10, 11, 1.0)
        comps = sorted(connected_components(g), key=len)
        assert [sorted(c) for c in comps] == [[10, 11], [0, 1, 2]]

    def test_is_connected(self):
        g = path_graph(4)
        assert is_connected(g)
        assert is_connected(g, nodes=[0, 1])
        assert not is_connected(g, nodes=[0, 2])  # 1 missing breaks the path
        assert is_connected(Graph())  # vacuous
