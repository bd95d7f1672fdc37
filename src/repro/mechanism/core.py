"""The core of a cost game (paper section 1.1 and Lemma 3.3).

``core(C)`` is the set of allocations ``f >= 0`` with ``sum over N of f =
C(N)`` and ``sum over R of f <= C(R)`` for every coalition ``R`` — no
coalition would rather secede.  Emptiness of the core rules out (weakly)
cross-monotonic cost-sharing methods, the paper's argument for why the
Euclidean ``alpha > 1, d > 1`` case needs approximate budget balance.

The feasibility LP is solved with ``scipy.optimize.linprog``, imported
inside the two LP functions: importing :mod:`repro` (and so every process
that serves prices) never loads scipy.  :func:`verify_core_allocation`
re-checks any produced allocation inequality-by-inequality so a numerical
false-positive cannot slip through.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence

import numpy as np

Agent = int
SetCost = Callable[[frozenset], float]


def _coalitions(agents: Sequence[Agent]) -> list[frozenset]:
    out = []
    for r in range(1, len(agents)):
        out.extend(frozenset(c) for c in itertools.combinations(agents, r))
    return out


def core_allocation(
    agents: Sequence[Agent], cost_fn: SetCost, *, tol: float = 1e-9
) -> dict[Agent, float] | None:
    """An allocation in ``core(C)``, or ``None`` if the core is empty.

    Solves the feasibility LP ``min 0 s.t. f >= 0, sum f = C(N),
    sum_{i in R} f_i <= C(R) for all proper coalitions R``.
    """
    from scipy.optimize import linprog

    agents = list(agents)
    n = len(agents)
    if n == 0:
        return {}
    index = {a: k for k, a in enumerate(agents)}
    grand = float(cost_fn(frozenset(agents)))

    coalitions = _coalitions(agents)
    A_ub = np.zeros((len(coalitions), n))
    b_ub = np.zeros(len(coalitions))
    for row, R in enumerate(coalitions):
        for i in R:
            A_ub[row, index[i]] = 1.0
        b_ub[row] = float(cost_fn(R))
    A_eq = np.ones((1, n))
    b_eq = np.array([grand])

    res = linprog(
        c=np.zeros(n),
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * n,
        method="highs",
    )
    if not res.success:
        return None
    f = {a: float(res.x[index[a]]) for a in agents}
    if not verify_core_allocation(f, agents, cost_fn, tol=max(tol, 1e-7)):
        return None
    return f


def core_is_empty(agents: Sequence[Agent], cost_fn: SetCost, *, tol: float = 1e-9) -> bool:
    return core_allocation(agents, cost_fn, tol=tol) is None


def verify_core_allocation(
    allocation: dict[Agent, float],
    agents: Sequence[Agent],
    cost_fn: SetCost,
    *,
    tol: float = 1e-7,
) -> bool:
    """Exhaustively re-check every core inequality for ``allocation``."""
    agents = list(agents)
    if any(allocation.get(a, 0.0) < -tol for a in agents):
        return False
    total = sum(allocation.get(a, 0.0) for a in agents)
    if abs(total - float(cost_fn(frozenset(agents)))) > tol * max(1.0, abs(total)):
        return False
    for R in _coalitions(agents):
        if sum(allocation.get(a, 0.0) for a in R) > float(cost_fn(R)) + tol:
            return False
    return True


def least_core_value(
    agents: Sequence[Agent], cost_fn: SetCost
) -> tuple[float, dict[Agent, float]]:
    """The least-core LP: minimise ``eps`` such that every coalition pays at
    most ``C(R) + eps``.  ``eps > 0`` iff the core is empty; the magnitude
    measures *how* empty (used by the Fig. 2 experiment to show the
    violation does not vanish as the instance grows)."""
    from scipy.optimize import linprog

    agents = list(agents)
    n = len(agents)
    index = {a: k for k, a in enumerate(agents)}
    grand = float(cost_fn(frozenset(agents)))
    coalitions = _coalitions(agents)

    # Variables: f_1..f_n, eps.  Minimise eps.
    A_ub = np.zeros((len(coalitions), n + 1))
    b_ub = np.zeros(len(coalitions))
    for row, R in enumerate(coalitions):
        for i in R:
            A_ub[row, index[i]] = 1.0
        A_ub[row, n] = -1.0
        b_ub[row] = float(cost_fn(R))
    A_eq = np.zeros((1, n + 1))
    A_eq[0, :n] = 1.0
    b_eq = np.array([grand])
    c = np.zeros(n + 1)
    c[n] = 1.0
    res = linprog(
        c=c,
        A_ub=A_ub,
        b_ub=b_ub,
        A_eq=A_eq,
        b_eq=b_eq,
        bounds=[(0, None)] * n + [(None, None)],
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"least-core LP failed: {res.message}")
    f = {a: float(res.x[index[a]]) for a in agents}
    return float(res.x[n]), f
