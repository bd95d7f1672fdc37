"""Exact optimal multicast on a line (d = 1) — Lemma 3.1 territory.

The paper's Lemma 3.1 sketches a construction (try every source radius,
then extend coverage outward by single hops) and cites [8, 12] for the
polynomial solvability of the d = 1 case.  Reproduction finding (recorded
in EXPERIMENTS.md): the sketched construction is an *upper bound* but not
always optimal — an optimal assignment may use a station's omnidirectional
*backward* coverage (a long rightward transmission also covers receivers
behind the transmitter), which outward single-hop chains cannot express.

The exact polynomial algorithm used here instead rests on an invariant of
the 1-d geometry: every transmission ball is an interval containing the
transmitter, so the reached-station set is always an interval containing
the source.  Dijkstra over the O(n^2) interval states, with transitions
"reached station i transmits exactly far enough to reach station j", is
therefore exact.  States O(n^2), edges O(n^4): fine for the n <= ~15
instances the experiments use; the test-suite certifies it against the
generic exponential oracle.

Both are exposed:

* :func:`optimal_line_multicast` — exact (interval Dijkstra);
* :func:`chain_line_multicast` — the paper's Lemma 3.1 construction
  (upper bound; measured gap reported by EXP-T4).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

import numpy as np

from repro.graphs.addressable_heap import AddressableHeap
from repro.wireless.power import PowerAssignment

_EPS = 1e-12


def _sorted_view(coords, source: int, receivers: Iterable[int]):
    orig = np.asarray(coords, dtype=float).ravel()
    n = orig.shape[0]
    order = np.lexsort((np.arange(n), orig))
    rank = np.empty(n, dtype=int)
    rank[order] = np.arange(n)
    xs = orig[order]
    return orig, n, order, rank, xs, int(rank[source]), sorted(int(rank[r]) for r in receivers)


def optimal_line_multicast(
    coords: Sequence[float] | np.ndarray,
    alpha: float,
    source: int,
    receivers: Iterable[int],
) -> tuple[float, PowerAssignment]:
    """Exact optimum for stations at 1-d ``coords`` (any order).

    Returns ``(cost, assignment)`` in the original station indexing.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    receivers = sorted(set(receivers) - {source})
    orig, n, order, rank, xs, s, recv = _sorted_view(coords, source, receivers)
    if not recv:
        return 0.0, PowerAssignment.zeros(n)

    f = min(recv[0], s)
    l = max(recv[-1], s)

    # Dijkstra over reached intervals [lo, hi] (sorted indices).
    start = (s, s)
    heap = AddressableHeap()
    heap.push(start, 0.0)
    settled: dict[tuple[int, int], float] = {}
    parent: dict[tuple[int, int], tuple[tuple[int, int], int, float]] = {}
    goal = None
    while heap:
        state, d = heap.pop()
        settled[state] = d
        lo, hi = state
        if lo <= f and hi >= l:
            goal = state
            break
        for i in range(lo, hi + 1):
            # Transmit from i exactly far enough to reach a new station j.
            for j in list(range(lo - 1, -1, -1)) + list(range(hi + 1, n)):
                r = abs(xs[i] - xs[j])
                new_lo = int(np.searchsorted(xs, xs[i] - r - _EPS, side="left"))
                new_hi = int(np.searchsorted(xs, xs[i] + r + _EPS, side="right")) - 1
                new_state = (min(lo, new_lo), max(hi, new_hi))
                if new_state == state or new_state in settled:
                    continue
                nd = d + r**alpha
                if heap.push_or_decrease(new_state, nd):
                    parent[new_state] = (state, i, r**alpha)
    assert goal is not None, "interval search must reach the receiver span"

    powers_sorted = np.zeros(n)
    state = goal
    while state != start:
        prev, i, p = parent[state]
        powers_sorted[i] = max(powers_sorted[i], p)
        state = prev
    powers = np.zeros(n)
    powers[order] = powers_sorted
    assignment = PowerAssignment(powers)
    return assignment.cost(), assignment


def line_all_interval_costs(
    coords: Sequence[float] | np.ndarray, alpha: float, source: int
) -> dict[tuple[int, int], float]:
    """``C*`` for every extreme pair, from one full interval-Dijkstra.

    Returns ``{(f, l): C*}`` keyed by *original* station indices ``f, l``
    (the leftmost/rightmost required stations, source included in the
    span automatically).  One O(n^4 log n) sweep prices all O(n^2)
    receiver-extreme combinations — used by the polynomial Shapley and MC
    mechanisms of Theorem 3.2.
    """
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    orig, n, order, rank, xs, s, _ = _sorted_view(coords, source, [])

    start = (s, s)
    heap = AddressableHeap()
    heap.push(start, 0.0)
    settled: dict[tuple[int, int], float] = {}
    while heap:
        state, d = heap.pop()
        settled[state] = d
        lo, hi = state
        for i in range(lo, hi + 1):
            for j in list(range(lo - 1, -1, -1)) + list(range(hi + 1, n)):
                r = abs(xs[i] - xs[j])
                new_lo = int(np.searchsorted(xs, xs[i] - r - _EPS, side="left"))
                new_hi = int(np.searchsorted(xs, xs[i] + r + _EPS, side="right")) - 1
                new_state = (min(lo, new_lo), max(hi, new_hi))
                if new_state == state or new_state in settled:
                    continue
                heap.push_or_decrease(new_state, d + r**alpha)

    # best[(lo, hi)] = min cost over settled states covering [lo, hi].
    inf = float("inf")
    table = np.full((n, n), inf)
    for (lo, hi), d in settled.items():
        table[lo, hi] = min(table[lo, hi], d)
    # Covering [lo', hi'] with lo' <= lo and hi' >= hi also serves [lo, hi]:
    # forward row sweep (lo) + backward column sweep (hi) take those minima.
    for lo in range(1, n):
        table[lo] = np.minimum(table[lo], table[lo - 1])
    for hi in range(n - 2, -1, -1):
        table[:, hi] = np.minimum(table[:, hi], table[:, hi + 1])

    out: dict[tuple[int, int], float] = {}
    for left in range(n):
        for right in range(left, n):
            span = (min(left, s), max(right, s))
            out[(int(order[left]), int(order[right]))] = float(table[span])
    return out


def chain_line_multicast(
    coords: Sequence[float] | np.ndarray,
    alpha: float,
    source: int,
    receivers: Iterable[int],
) -> tuple[float, PowerAssignment]:
    """The paper's Lemma 3.1 construction (try every source radius, chain
    single hops outward).  Feasible and usually optimal, but an upper
    bound in general — see the module docstring."""
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    receivers = sorted(set(receivers) - {source})
    orig, n, order, rank, xs, s, recv = _sorted_view(coords, source, receivers)
    if not recv:
        return 0.0, PowerAssignment.zeros(n)

    f = min(recv[0], s)
    l = max(recv[-1], s)

    best_cost = float("inf")
    best: np.ndarray | None = None
    candidates = sorted({abs(xs[j] - xs[s]) for j in range(f, l + 1)})
    for radius in candidates:
        powers = np.zeros(n)
        powers[s] = radius**alpha
        left = s
        while left - 1 >= f and xs[s] - xs[left - 1] <= radius + 1e-12:
            left -= 1
        right = s
        while right + 1 <= l and xs[right + 1] - xs[s] <= radius + 1e-12:
            right += 1
        for i in range(left, f, -1):  # i covers i-1
            powers[i] = max(powers[i], (xs[i] - xs[i - 1]) ** alpha)
        for i in range(right, l):  # i covers i+1
            powers[i] = max(powers[i], (xs[i + 1] - xs[i]) ** alpha)
        cost = float(powers.sum())
        if cost < best_cost:
            best_cost = cost
            best = powers

    assert best is not None
    unsorted_powers = np.zeros(n)
    unsorted_powers[order] = best
    return best_cost, PowerAssignment(unsorted_powers)
