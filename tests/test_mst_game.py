"""Tests for repro.core.mst_game (Bird allocation, MST game)."""

import itertools

import pytest

from repro.core.jv_steiner import JVSteinerShares
from repro.core.mst_game import MSTGame
from repro.geometry.layouts import LAYOUT_FAMILIES, layout_points
from repro.geometry.points import grid_points, uniform_points
from repro.mechanism.core import verify_core_allocation
from repro.mechanism.moulin_shenker import check_cross_monotonicity
from repro.wireless.cost_graph import EuclideanCostGraph


def game(seed, n=7, alpha=2.0):
    net = EuclideanCostGraph(uniform_points(n, 2, rng=seed, side=4.0), alpha)
    return MSTGame(net, 0), [i for i in range(n) if i != 0]


class TestMSTGameCost:
    @pytest.mark.parametrize("layout", [*LAYOUT_FAMILIES, "lattice"])
    def test_matches_jv_closure_mst(self, layout):
        """Both price a coalition on the one closure-MST kernel, so the
        floats agree exactly (exact lattice ties included)."""
        points = (grid_points(4, 4) if layout == "lattice"
                  else layout_points(layout, 12, 2, side=10.0, seed=0))
        g = MSTGame(EuclideanCostGraph(points, 2.0), 0)
        agents = list(range(1, g.network.n))
        jv = JVSteinerShares(g.network, 0)
        for size in (1, 3, len(agents)):
            R = frozenset(agents[:size])
            assert g.cost(R) == jv.closure_mst_weight(R)

    def test_not_necessarily_monotone(self):
        """The MST game is famously NOT monotone: a new terminal can act as
        a Steiner point and shorten the tree (why the terminal-MST is only a
        2-approximation of the Steiner tree).  Certify the phenomenon."""
        decrease_found = False
        for seed in range(20):
            g, agents = game(seed, n=6)
            for r in range(1, len(agents)):
                for R in itertools.combinations(agents, r):
                    base = g.cost(R)
                    for extra in agents:
                        if extra not in R and g.cost(set(R) | {extra}) < base - 1e-9:
                            decrease_found = True
                            break
                    if decrease_found:
                        break
                if decrease_found:
                    break
            if decrease_found:
                break
        assert decrease_found

    def test_empty(self):
        g, _ = game(0)
        assert g.cost([]) == 0.0
        assert g.bird_allocation([]) == {}


class TestBirdAllocation:
    @pytest.mark.parametrize("seed", range(5))
    def test_budget_balanced(self, seed):
        g, agents = game(seed)
        shares = g.bird_allocation(agents)
        assert sum(shares.values()) == pytest.approx(g.cost(agents))
        assert set(shares) == set(agents)
        assert all(s >= -1e-12 for s in shares.values())

    @pytest.mark.parametrize("seed", range(5))
    def test_birds_theorem_in_core(self, seed):
        """Bird's allocation always lies in the core of the MST game."""
        g, agents = game(seed, n=6)
        shares = g.bird_allocation(agents)
        assert verify_core_allocation(shares, agents, lambda R: g.cost(R))

    def test_not_cross_monotonic_somewhere(self):
        """Unlike the JV shares, Bird's rule is not cross-monotonic — the
        reason the paper's section 3.2 cannot just use it."""
        found = False
        for seed in range(30):
            g, agents = game(seed, n=6)
            violations = check_cross_monotonicity(
                agents, lambda R, g=g: g.bird_allocation(R)
            )
            if violations:
                found = True
                break
        assert found, "expected a cross-monotonicity violation on some instance"

    def test_jv_shares_agree_in_total_with_bird(self):
        g, agents = game(2)
        jv = JVSteinerShares(g.network, 0)
        R = frozenset(agents)
        assert sum(jv.shares(R).values()) == pytest.approx(
            sum(g.bird_allocation(R).values())
        )
