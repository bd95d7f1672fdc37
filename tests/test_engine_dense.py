"""Tests for repro.engine.dense: array backends and vectorised kernels."""

import numpy as np
import pytest

from repro.engine.backend import GraphBackend, as_array_backend, is_array_backend
from repro.engine.dense import ArrayGraph, CSRGraph, DenseGraph, batched_dijkstra
from repro.graphs.adjacency import Graph
from repro.graphs.mst import mst_weight, prim_mst
from repro.graphs.random_graphs import random_connected_graph
from repro.graphs.shortest_paths import (
    all_pairs_dijkstra,
    dijkstra,
    reconstruct_path,
)

INF = np.inf


def path_graph(n, backend="dense"):
    edges = [(i, i + 1, float(i + 1)) for i in range(n - 1)]
    cls = DenseGraph if backend == "dense" else CSRGraph
    return cls.from_edges(n, edges)


class TestDenseGraphContainer:
    def test_construction_and_queries(self):
        g = DenseGraph.from_edges(4, [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 1.0)])
        assert len(g) == 4
        assert g.nodes() == [0, 1, 2, 3]
        assert list(g) == [0, 1, 2, 3]
        assert 3 in g and 4 not in g and "x" not in g
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 3)
        assert g.weight(1, 2) == 3.0
        with pytest.raises(KeyError):
            g.weight(0, 2)
        assert dict(g.neighbors(1)) == {0: 2.0, 2: 3.0}
        assert g.degree(1) == 2
        assert sorted(g.edges()) == [(0, 1, 2.0), (1, 2, 3.0), (2, 3, 1.0)]
        assert g.number_of_edges() == 3
        assert g.total_weight() == 6.0

    def test_satisfies_graph_backend_protocol(self):
        g = DenseGraph.from_edges(3, [(0, 1, 1.0)])
        assert isinstance(g, GraphBackend)
        assert isinstance(Graph(), GraphBackend)
        assert is_array_backend(g) and not is_array_backend(Graph())

    def test_duplicate_edges_keep_minimum(self):
        g = DenseGraph.from_edges(2, [(0, 1, 5.0), (0, 1, 2.0), (1, 0, 7.0)])
        assert g.weight(0, 1) == 2.0

    def test_zero_weight_edge_is_an_edge(self):
        g = DenseGraph.from_edges(3, [(0, 1, 0.0)])
        assert g.has_edge(0, 1) and g.weight(0, 1) == 0.0
        dist, _ = dijkstra(g, 0)
        assert dist == {0: 0.0, 1: 0.0}

    def test_rejects_negative_and_nonsquare(self):
        with pytest.raises(ValueError):
            DenseGraph(np.array([[INF, -1.0], [-1.0, INF]]))
        with pytest.raises(ValueError):
            DenseGraph(np.zeros((2, 3)))

    def test_rejects_asymmetric_undirected(self):
        m = np.full((2, 2), INF)
        m[0, 1] = 1.0
        with pytest.raises(ValueError):
            DenseGraph(m)
        assert DenseGraph(m, directed=True).weight(0, 1) == 1.0

    def test_from_graph_requires_contiguous_int_labels(self):
        g = Graph()
        g.add_edge("a", "b", 1.0)
        with pytest.raises(ValueError):
            DenseGraph.from_graph(g)
        h = Graph()
        h.add_edge(0, 2, 1.0)  # label 2 with n = 2
        with pytest.raises(ValueError):
            DenseGraph.from_graph(h)

    def test_as_array_backend_coercion(self):
        g = random_connected_graph(8, rng=0)
        dense = as_array_backend(g)
        assert isinstance(dense, DenseGraph)
        assert as_array_backend(dense) is dense
        csr = as_array_backend(g, prefer="csr")
        assert isinstance(csr, CSRGraph)
        labelled = Graph()
        labelled.add_edge("a", "b", 1.0)
        assert as_array_backend(labelled) is None
        with pytest.raises(ValueError):
            as_array_backend(g, prefer="bogus")


class TestCSRGraphContainer:
    def test_round_trip_matches_dict_graph(self):
        g = random_connected_graph(12, rng=1)
        csr = CSRGraph.from_graph(g)
        assert len(csr) == len(g)
        assert sorted(csr.edges()) == sorted(g.edges())
        assert csr.number_of_edges() == g.number_of_edges()
        assert csr.total_weight() == pytest.approx(g.total_weight())
        for u in g.nodes():
            assert dict(csr.neighbors(u)) == dict(g.neighbors(u))
            assert csr.degree(u) == g.degree(u)

    def test_weight_and_has_edge(self):
        csr = path_graph(4, backend="csr")
        assert csr.has_edge(2, 3) and csr.weight(2, 3) == 3.0
        assert not csr.has_edge(0, 3)
        with pytest.raises(KeyError):
            csr.weight(0, 3)

    def test_raw_constructor_rejects_duplicate_arcs(self):
        # Fancy-indexed relaxation would let the *last* duplicate win, so
        # duplicates must be rejected at construction (regression).
        with pytest.raises(ValueError, match="duplicate arcs"):
            CSRGraph(2, [0, 2, 2], [1, 1], [3.0, 5.0], directed=True)

    def test_raw_constructor_rejects_self_loops(self):
        with pytest.raises(ValueError, match="self-loops"):
            CSRGraph(2, [0, 1, 1], [0], [1.0], directed=True)

    def test_from_edges_collapses_duplicates_instead(self):
        csr = CSRGraph.from_edges(2, [(0, 1, 5.0), (0, 1, 3.0)])
        assert csr.weight(0, 1) == 3.0
        dist, _ = dijkstra(csr, 0)
        assert dist == {0: 0.0, 1: 3.0}


class TestKernels:
    @pytest.mark.parametrize("backend", ["dense", "csr"])
    def test_dijkstra_matches_dict_backend(self, backend):
        for seed in range(5):
            g = random_connected_graph(15, rng=seed)
            arr = as_array_backend(g, prefer=backend)
            dist_dict, _ = dijkstra(g, 0)
            dist_arr, parent_arr = dijkstra(arr, 0)
            assert dist_arr == dist_dict  # exact float equality
            # Parents witness the distances.
            for v in dist_arr:
                path = reconstruct_path(parent_arr, v)
                total = sum(g.weight(a, b) for a, b in zip(path, path[1:]))
                assert total == pytest.approx(dist_arr[v])

    @pytest.mark.parametrize("backend", ["dense", "csr"])
    def test_dijkstra_early_exit(self, backend):
        g = path_graph(10, backend=backend)
        dist, parent = dijkstra(g, 0, targets=[3])
        assert set(dist) == {0, 1, 2, 3}
        assert set(parent) == set(dist)
        assert reconstruct_path(parent, 3) == [0, 1, 2, 3]

    @pytest.mark.parametrize("backend", ["dense", "csr"])
    def test_dijkstra_disconnected(self, backend):
        cls = DenseGraph if backend == "dense" else CSRGraph
        g = cls.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0)])
        dist, parent = dijkstra(g, 0)
        assert set(dist) == {0, 1} and set(parent) == {0, 1}

    def test_shortest_path_on_dense(self):
        g = DenseGraph.from_edges(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 5.0),
                                      (2, 3, 1.0)])
        dist, parent = dijkstra(g, 0, targets=[3])
        assert reconstruct_path(parent, 3) == [0, 1, 2, 3] and dist[3] == 3.0

    @pytest.mark.parametrize("backend", ["dense", "csr"])
    def test_prim_matches_dict_backend(self, backend):
        for seed in range(5):
            g = random_connected_graph(14, rng=seed + 10)
            arr = as_array_backend(g, prefer=backend)
            tree_dict = prim_mst(g, root=0)
            tree_arr = prim_mst(arr, root=0)
            assert mst_weight(tree_arr) == mst_weight(tree_dict)  # exact
            assert sorted((min(u, v), max(u, v)) for u, v, _ in tree_arr) == \
                sorted((min(u, v), max(u, v)) for u, v, _ in tree_dict)

    def test_prim_rejects_directed(self):
        g = DenseGraph.from_edges(2, [(0, 1, 1.0)], directed=True)
        with pytest.raises(ValueError):
            g.prim_arrays(0)

    def test_all_pairs_matches_dict_backend(self):
        g = random_connected_graph(12, rng=4)
        dense = as_array_backend(g)
        apsp_dict = all_pairs_dijkstra(g)
        apsp_arr = all_pairs_dijkstra(dense)
        assert set(apsp_arr) == set(apsp_dict)
        for u in apsp_dict:
            assert apsp_arr[u] == apsp_dict[u]

    def test_directed_dense_dijkstra(self):
        g = DenseGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 1.0), (2, 0, 10.0)],
                                  directed=True)
        dist, _ = dijkstra(g, 1)
        assert dist == {1: 0.0, 2: 1.0, 0: 11.0}


class TestBatchedDijkstra:
    def test_matches_per_source(self):
        g = random_connected_graph(13, rng=7)
        dense = as_array_backend(g)
        D = batched_dijkstra(dense.matrix)
        for u in range(13):
            dist, _ = dijkstra(g, u)
            for v in range(13):
                assert D[u, v] == dist[v]

    def test_source_subset_and_parents(self):
        g = random_connected_graph(11, rng=8)
        dense = as_array_backend(g)
        D, P = batched_dijkstra(dense.matrix, [3, 5], return_parents=True)
        assert D.shape == (2, 11) and P.shape == (2, 11)
        for row, src in enumerate((3, 5)):
            assert D[row, src] == 0.0 and P[row, src] == -1
            for v in range(11):
                if v == src:
                    continue
                # Walking the parent chain reproduces the distance.
                path = [v]
                while path[-1] != src:
                    path.append(int(P[row, path[-1]]))
                total = sum(g.weight(a, b) for a, b in zip(path, path[1:]))
                assert total == pytest.approx(D[row, v])

    def test_unreachable_stays_inf(self):
        w = np.full((4, 4), INF)
        w[0, 1] = w[1, 0] = 2.0
        D = batched_dijkstra(w)
        assert D[0, 1] == 2.0 and np.isinf(D[0, 2]) and np.isinf(D[2, 1])

    def test_empty_and_degenerate(self):
        assert batched_dijkstra(np.full((3, 3), INF), []).shape == (0, 3)
        with pytest.raises(ValueError):
            batched_dijkstra(np.zeros((2, 3)))

    def test_directed_arc_matrix(self):
        # Node-weighted style arcs: walking into node v costs w[v].
        w = np.full((3, 3), INF)
        w[0, 1] = 4.0  # 0 -> 1
        w[1, 2] = 1.0  # 1 -> 2
        D = batched_dijkstra(w, [0])
        assert D[0].tolist() == [0.0, 4.0, 5.0]


class TestArrayGraphIsAbstract:
    def test_base_class_n_not_implemented(self):
        with pytest.raises(NotImplementedError):
            ArrayGraph().n
