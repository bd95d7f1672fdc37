"""Tests for repro.core.jv_steiner (Jain-Vazirani cross-monotonic shares)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.jv_steiner import JVSteinerShares
from repro.geometry.points import uniform_points
from repro.graphs.random_graphs import random_cost_matrix
from repro.mechanism.moulin_shenker import check_cross_monotonicity
from repro.wireless.cost_graph import CostGraph, EuclideanCostGraph


def euclid(seed, n=7, alpha=2.0):
    return EuclideanCostGraph(uniform_points(n, 2, rng=seed, side=4.0), alpha)


class TestMetricClosure:
    def test_floyd_warshall_matches_dijkstra(self):
        net = CostGraph(random_cost_matrix(8, rng=0))
        closure = net.as_dense().all_pairs_arrays()
        from repro.graphs.shortest_paths import dijkstra

        g = net.as_graph()
        for i in range(8):
            dist, _ = dijkstra(g, i)
            for j in range(8):
                assert closure[i, j] == pytest.approx(dist[j])

    def test_triangle_inequality(self):
        net = euclid(1)
        c = net.as_dense().all_pairs_arrays()
        n = net.n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert c[i, j] <= c[i, k] + c[k, j] + 1e-9


class TestShares:
    @pytest.mark.parametrize("seed", range(5))
    def test_sum_equals_closure_mst(self, seed):
        net = euclid(seed)
        jv = JVSteinerShares(net, 0)
        rng = np.random.default_rng(seed)
        for _ in range(6):
            size = int(rng.integers(1, net.n))
            R = frozenset(int(x) for x in rng.choice(range(1, net.n), size=size, replace=False))
            shares = jv.shares(R)
            assert set(shares) == set(R)
            assert sum(shares.values()) == pytest.approx(jv.closure_mst_weight(R))
            assert all(s >= -1e-12 for s in shares.values())

    def test_empty_and_source_only(self):
        jv = JVSteinerShares(euclid(0), 0)
        assert jv.shares(frozenset()) == {}
        assert jv.shares(frozenset({0})) == {}
        assert jv.closure_mst_weight(frozenset()) == 0.0

    def test_singleton_pays_its_connection(self):
        net = euclid(2)
        jv = JVSteinerShares(net, 0)
        shares = jv.shares(frozenset({3}))
        closure = net.as_dense().all_pairs_arrays()
        assert shares[3] == pytest.approx(closure[0, 3])

    @pytest.mark.parametrize("seed", range(4))
    def test_cross_monotonic_exhaustive(self, seed):
        net = euclid(seed, n=6)
        jv = JVSteinerShares(net, 0)
        assert check_cross_monotonicity(list(range(1, 6)), jv.shares) == []

    def test_general_symmetric_networks_too(self):
        net = CostGraph(random_cost_matrix(6, rng=5))
        jv = JVSteinerShares(net, 0)
        assert check_cross_monotonicity(list(range(1, 6)), jv.shares) == []


class TestWeightedFamily:
    def test_weights_shift_shares_but_not_total(self):
        net = euclid(3)
        R = frozenset(range(1, net.n))
        equal = JVSteinerShares(net, 0).shares(R)
        heavy = {i: (10.0 if i == 1 else 1.0) for i in range(1, net.n)}
        weighted = JVSteinerShares(net, 0, heavy).shares(R)
        assert sum(equal.values()) == pytest.approx(sum(weighted.values()))
        assert weighted[1] >= equal[1] - 1e-12  # heavier agents pay more

    def test_weighted_still_cross_monotonic(self):
        net = euclid(4, n=6)
        rng = np.random.default_rng(0)
        w = {i: float(rng.uniform(0.5, 3.0)) for i in range(1, 6)}
        jv = JVSteinerShares(net, 0, w)
        assert check_cross_monotonicity(list(range(1, 6)), jv.shares) == []

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            JVSteinerShares(euclid(0), 0, {1: 0.0})


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 1000), data=st.data())
def test_cross_monotonicity_property(seed, data):
    """Random covering pairs on bigger instances: xi(Q, i) >= xi(Q + j, i)."""
    net = euclid(seed % 20, n=8)
    jv = JVSteinerShares(net, 0)
    agents = list(range(1, 8))
    Q = frozenset(data.draw(st.lists(st.sampled_from(agents), min_size=1,
                                     max_size=6, unique=True)))
    outside = [a for a in agents if a not in Q]
    if not outside:
        return
    j = data.draw(st.sampled_from(outside))
    shares_Q = jv.shares(Q)
    shares_R = jv.shares(Q | {j})
    for i in Q:
        assert shares_Q[i] >= shares_R[i] - 1e-9
