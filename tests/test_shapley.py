"""Tests for repro.mechanism.shapley: axioms, closed forms, sampling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mechanism.shapley import shapley_shares


class TestShapleyAxioms:
    def test_efficiency_sums_to_grand_cost(self):
        cost = lambda R: float(len(R) ** 1.5)
        shares = shapley_shares([1, 2, 3, 4], cost)
        assert sum(shares.values()) == pytest.approx(cost(frozenset({1, 2, 3, 4})))

    def test_symmetry(self):
        cost = lambda R: float(bool(R))  # all agents identical
        shares = shapley_shares([1, 2, 3], cost)
        assert shares[1] == pytest.approx(shares[2]) == pytest.approx(shares[3])
        assert shares[1] == pytest.approx(1 / 3)

    def test_dummy_agent_pays_zero(self):
        # Agent 9 never changes the cost.
        cost = lambda R: 5.0 if (R - {9}) else 0.0
        shares = shapley_shares([1, 2, 9], cost)
        assert shares[9] == pytest.approx(0.0)

    def test_additivity(self):
        c1 = lambda R: float(len(R))
        c2 = lambda R: max((i for i in R), default=0.0)
        both = lambda R: c1(R) + c2(R)
        s1 = shapley_shares([1, 2, 3], c1)
        s2 = shapley_shares([1, 2, 3], c2)
        s12 = shapley_shares([1, 2, 3], both)
        for i in (1, 2, 3):
            assert s12[i] == pytest.approx(s1[i] + s2[i])

    def test_airport_game_closed_form(self):
        # Max game with a_1 <= a_2 <= a_3: classic airport-game shares.
        a = {1: 3.0, 2: 6.0, 3: 12.0}
        shares = shapley_shares([1, 2, 3], lambda R: max((a[i] for i in R), default=0.0))
        assert shares[1] == pytest.approx(1.0)  # 3/3
        assert shares[2] == pytest.approx(1.0 + 1.5)  # 3/3 + 3/2
        assert shares[3] == pytest.approx(1.0 + 1.5 + 6.0)

    def test_empty(self):
        assert shapley_shares([], lambda R: 0.0) == {}


class TestMarginalVectorMethod:
    def test_budget_balanced_by_telescoping(self):
        from repro.mechanism.shapley import marginal_vector_method

        cost = lambda R: float(len(R) ** 1.5)
        method = marginal_vector_method([3, 1, 2], cost)
        shares = method(frozenset({1, 2, 3}))
        assert sum(shares.values()) == pytest.approx(cost(frozenset({1, 2, 3})))
        sub = method(frozenset({1, 2}))
        assert sum(sub.values()) == pytest.approx(cost(frozenset({1, 2})))

    def test_cross_monotonic_for_submodular(self):
        from repro.mechanism.moulin_shenker import check_cross_monotonicity
        from repro.mechanism.shapley import marginal_vector_method

        a = {1: 1.0, 2: 3.0, 3: 6.0, 4: 2.0}
        cost = lambda R: max((a[i] for i in R), default=0.0)
        method = marginal_vector_method([1, 2, 3, 4], cost)
        assert check_cross_monotonicity([1, 2, 3, 4], method) == []

    def test_order_dependence(self):
        from repro.mechanism.shapley import marginal_vector_method

        a = {1: 2.0, 2: 2.0}
        cost = lambda R: max((a[i] for i in R), default=0.0)
        first = marginal_vector_method([1, 2], cost)(frozenset({1, 2}))
        second = marginal_vector_method([2, 1], cost)(frozenset({1, 2}))
        assert first[1] == pytest.approx(2.0) and first[2] == pytest.approx(0.0)
        assert second[2] == pytest.approx(2.0) and second[1] == pytest.approx(0.0)

    def test_average_over_all_orders_is_shapley(self):
        import itertools

        from repro.mechanism.shapley import marginal_vector_method

        cost = lambda R: float(sum(R)) ** 0.8 if R else 0.0
        agents = [1, 2, 3]
        exact = shapley_shares(agents, cost)
        acc = {i: 0.0 for i in agents}
        orders = list(itertools.permutations(agents))
        for order in orders:
            shares = marginal_vector_method(order, cost)(frozenset(agents))
            for i in agents:
                acc[i] += shares[i] / len(orders)
        for i in agents:
            assert acc[i] == pytest.approx(exact[i])


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(0.1, 50), min_size=1, max_size=6))
def test_max_game_shapley_is_cross_monotonic_in_the_small(values):
    """For submodular (max) games, removing an agent never lowers others'
    shares (Shapley cross-monotonicity — the Moulin-Shenker prerequisite)."""
    agents = list(range(len(values)))
    a = dict(zip(agents, values))
    cost = lambda R: max((a[i] for i in R), default=0.0)
    full = shapley_shares(agents, cost)
    if len(agents) < 2:
        return
    sub = shapley_shares(agents[:-1], cost)
    for i in agents[:-1]:
        assert sub[i] >= full[i] - 1e-9
