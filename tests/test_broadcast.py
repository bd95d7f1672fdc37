"""Tests for repro.wireless.broadcast (MEBT)."""

import pytest

from repro.geometry.points import uniform_points
from repro.wireless.broadcast import bip_broadcast, mst_broadcast
from repro.wireless.cost_graph import EuclideanCostGraph
from repro.wireless.memt import optimal_broadcast


class TestMSTBroadcast:
    @pytest.mark.parametrize("seed", range(5))
    def test_feasible(self, seed):
        net = EuclideanCostGraph(uniform_points(8, 2, rng=seed, side=4.0), 2.0)
        pa = mst_broadcast(net, 0)
        assert pa.reaches(net, 0, range(1, 8))

    @pytest.mark.parametrize("seed", range(5))
    def test_ratio_within_d2_bound(self, seed):
        """cost(MST heuristic)/C* <= 6 in the plane (Ambuehl via Lemma 3.4)."""
        net = EuclideanCostGraph(uniform_points(8, 2, rng=seed + 20, side=4.0), 2.0)
        ratio = mst_broadcast(net, 0).cost() / optimal_broadcast(net, 0)[0]
        assert 1.0 - 1e-9 <= ratio <= 6.0 + 1e-9

    def test_d1_alpha1_mst_is_optimal(self):
        """On a line with alpha = 1 the MST heuristic is exactly optimal."""
        net = EuclideanCostGraph(uniform_points(7, 1, rng=3, side=5.0), 1.0)
        ratio = mst_broadcast(net, 0).cost() / optimal_broadcast(net, 0)[0]
        assert ratio == pytest.approx(1.0)


class TestBIPBroadcast:
    @pytest.mark.parametrize("seed", range(3))
    def test_feasible_and_at_least_optimal(self, seed):
        net = EuclideanCostGraph(uniform_points(7, 2, rng=seed, side=4.0), 2.0)
        pa = bip_broadcast(net, 0)
        assert pa.reaches(net, 0, range(1, 7))
        opt, _ = optimal_broadcast(net, 0)
        assert pa.cost() >= opt - 1e-9
