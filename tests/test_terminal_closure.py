"""Tests for repro.engine.closure (terminal-sourced metric closures).

The load-bearing invariant: the terminal-sourced closure's rows are
*bit-identical* to the corresponding rows of the full all-pairs closure —
every Dijkstra variant in the engine computes the same float path sums,
so restricting the source set changes how much work is done, never a
single bit of the answers.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.euclidean_bb import EuclideanJVMechanism
from repro.core.jv_steiner import JVSteinerShares
from repro.engine.closure import TerminalClosure
from repro.engine.dense import CSRGraph, DenseGraph
from repro.geometry.points import uniform_points
from repro.graphs.random_graphs import random_cost_matrix
from repro.wireless.cost_graph import CostGraph, EuclideanCostGraph


def euclid(seed, n=12, alpha=2.0):
    return EuclideanCostGraph(uniform_points(n, 2, rng=seed, side=4.0), alpha)


class TestTerminalClosure:
    def test_rows_match_full_closure(self):
        net = euclid(0)
        full = net.as_dense().all_pairs_arrays()
        tc = TerminalClosure.from_network(net, [0, 3, 5, 9])
        for row, t in enumerate(tc.terminals):
            assert np.array_equal(tc.rows[row], full[t])

    def test_submatrix_bit_identical(self):
        net = euclid(1)
        full = net.as_dense().all_pairs_arrays()
        pts = [0, 2, 7, 4]
        tc = TerminalClosure.from_network(net, pts)
        assert np.array_equal(tc.submatrix(pts), full[np.ix_(pts, pts)])

    def test_distance_and_covers(self):
        net = euclid(2)
        tc = TerminalClosure.from_network(net, [0, 1, 2])
        assert tc.covers([0, 1])
        assert not tc.covers([0, 5])
        full = net.as_dense().all_pairs_arrays()
        assert tc.distance(1, 2) == full[1, 2]

    def test_non_terminal_raises(self):
        net = euclid(3)
        tc = TerminalClosure.from_network(net, [0, 1])
        with pytest.raises(ValueError, match="not a closure terminal"):
            tc.submatrix([0, 5])

    def test_closure_submatrix_dispatch(self):
        net = euclid(4)
        full = TerminalClosure.all_stations(net)
        pts = [0, 3, 6]
        tc = TerminalClosure.from_network(net, pts)
        a = tc.submatrix(pts)
        b = full.submatrix(pts)
        assert np.array_equal(a, b)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), data=st.data())
    def test_property_dense_submatrix(self, seed, data):
        n = data.draw(st.integers(4, 14))
        k = data.draw(st.integers(1, n - 1))
        net = CostGraph(random_cost_matrix(n, rng=seed))
        terminals = [0, *data.draw(
            st.lists(st.integers(1, n - 1), min_size=k, max_size=k,
                     unique=True))]
        tc = TerminalClosure.from_network(net, terminals)
        full = net.as_dense().all_pairs_arrays()
        assert np.array_equal(tc.submatrix(terminals),
                              full[np.ix_(terminals, terminals)])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_csr_matches_dense(self, seed):
        net = CostGraph(random_cost_matrix(10, rng=seed))
        terminals = [0, 2, 5, 8]
        dense = TerminalClosure.from_graph(
            DenseGraph.from_cost_graph(net), terminals)
        csr = TerminalClosure.from_graph(
            CSRGraph.from_graph(net.as_graph()), terminals)
        assert np.array_equal(dense.rows, csr.rows)

    def test_jv_shares_bit_identical_on_terminal_closure(self):
        net = euclid(5, n=14)
        recv = [1, 3, 5, 7, 9, 11]
        tc = TerminalClosure.from_network(net, [0, *recv])
        full = TerminalClosure.all_stations(net)
        jv_t = JVSteinerShares(net, 0, closure=tc)
        jv_f = JVSteinerShares(net, 0, closure=full)
        rng = np.random.default_rng(0)
        for _ in range(10):
            size = int(rng.integers(1, len(recv) + 1))
            R = frozenset(int(x) for x in rng.choice(recv, size=size,
                                                     replace=False))
            assert jv_t.shares(R) == jv_f.shares(R)

    def test_jv_rejects_incomplete_closure(self):
        net = euclid(6)
        tc = TerminalClosure.from_network(net, [1, 2])  # source missing
        with pytest.raises(ValueError, match="must include the source"):
            JVSteinerShares(net, 0, closure=tc)

    def test_jv_rejects_a_bare_matrix(self):
        net = euclid(8)
        matrix = net.as_dense().all_pairs_arrays()
        with pytest.raises(TypeError, match="TerminalClosure"):
            JVSteinerShares(net, 0, closure=matrix)
        with pytest.raises(TypeError, match="TerminalClosure"):
            EuclideanJVMechanism(net, 0, closure=matrix)

    def test_jv_rejects_size_mismatch(self):
        net = euclid(7)
        other = euclid(7, n=9)
        tc = TerminalClosure.from_network(other, [0, 1])
        with pytest.raises(ValueError, match="closure covers"):
            JVSteinerShares(net, 0, closure=tc)
