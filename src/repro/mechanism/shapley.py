"""Shapley value of a cost game (paper Eq. (4)).

``xi(R, i) = sum over Q ⊆ R \\ {i} of |Q|!(|R|-|Q|-1)!/|R|! *
(C(Q + i) - C(Q))`` — the average marginal cost of ``i`` over all arrival
orders.  For non-decreasing submodular ``C`` this method is cross-monotonic,
so plugging it into the Moulin-Shenker driver yields a budget-balanced,
group-strategyproof mechanism (section 1.1 of the paper).

The exact computation enumerates ``2^{|R|-1}`` subsets per agent.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable, Sequence

Agent = int
SetCost = Callable[[frozenset], float]


def shapley_shares(subset: Sequence[Agent], cost_fn: SetCost) -> dict[Agent, float]:
    """Exact Shapley shares of ``cost_fn`` restricted to ``subset``."""
    R = list(dict.fromkeys(subset))
    k = len(R)
    if k == 0:
        return {}
    # Pre-compute the order weights |Q|! (k - |Q| - 1)! / k!.
    fact = [math.factorial(x) for x in range(k + 1)]
    weight = [fact[q] * fact[k - q - 1] / fact[k] for q in range(k)]
    # Memoise C over sub-subsets.
    cache: dict[frozenset, float] = {}

    def C(Q: frozenset) -> float:
        if Q not in cache:
            cache[Q] = float(cost_fn(Q))
        return cache[Q]

    shares: dict[Agent, float] = {}
    for i in R:
        others = [x for x in R if x != i]
        total = 0.0
        for q in range(len(others) + 1):
            w = weight[q]
            for Q in itertools.combinations(others, q):
                Qs = frozenset(Q)
                total += w * (C(Qs | {i}) - C(Qs))
        shares[i] = total
    return shares


def shapley_method(cost_fn: SetCost) -> Callable[[frozenset], dict[Agent, float]]:
    """Adapter: the Shapley value as a cost-sharing *method* ``xi(R, .)``
    usable by :func:`repro.mechanism.moulin_shenker.moulin_shenker`."""

    def method(R: frozenset) -> dict[Agent, float]:
        return shapley_shares(sorted(R), cost_fn)

    return method


def marginal_vector_method(
    order: Sequence[Agent], cost_fn: SetCost
) -> Callable[[frozenset], dict[Agent, float]]:
    """The fixed-permutation *marginal vector* cost-sharing method.

    ``xi(R, i) = C(pred(i) ∩ R + i) - C(pred(i) ∩ R)`` where ``pred(i)`` are
    the agents before ``i`` in ``order``.  Always budget balanced
    (telescoping), and cross-monotonic whenever ``C`` is submodular —
    so it spans, with the Shapley value (their average over all orders),
    the classic family of Moulin-Shenker-compatible methods.  The paper's
    §1.1 singles out Shapley among them as achieving the lowest worst-case
    efficiency loss [38]; EXP-E4 measures exactly that comparison.
    """
    position = {a: p for p, a in enumerate(order)}

    def method(R: frozenset) -> dict[Agent, float]:
        members = sorted(R, key=lambda a: position[a])
        shares: dict[Agent, float] = {}
        prefix: frozenset = frozenset()
        c_prev = float(cost_fn(prefix))
        for i in members:
            prefix = prefix | {i}
            c_new = float(cost_fn(prefix))
            shares[i] = c_new - c_prev
            c_prev = c_new
        return shares

    return method
