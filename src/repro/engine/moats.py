"""Kruskal moat kernels for the Jain-Vazirani Steiner cost shares.

The seed implementation of :class:`repro.core.jv_steiner.JVSteinerShares`
materialised a dict :class:`~repro.graphs.adjacency.Graph` over the
terminals and snapshotted every merge component as a frozenset — ``O(k^2)``
allocations per evaluation, re-paid on every Moulin-Shenker round.  These
kernels run the same moat process straight off the metric-closure matrix:
components live in an integer union-find with member lists, and shares
accumulate into a flat vector.

The moat shares, their total (the closure MST weight) and step 1 of the
KMB served tree (:func:`repro.graphs.steiner.kmb_steiner_tree`) are all
functions of one closure MST, and all take it from :func:`closure_mst`:
an ``O(k^2)`` numpy Prim that returns exactly the ``k - 1`` edges Kruskal
accepts, in acceptance order, instead of sorting all ``k (k - 1) / 2``
closure edges.

Tie-breaking replicates :func:`repro.graphs.mst.kruskal_mst` exactly
(sort key ``(weight, repr(u), repr(v))`` with ``(u, v)`` oriented by
position in ``pts`` and the weight read from the earlier point's closure
row), so the merge schedule — and therefore every share of the default
equal-split family, and the served tree — matches the reference
formulation bit-for-bit.  In the weighted family a component's weight
total is accumulated over its members in *sorted station order* (a
deterministic choice; the retired frozenset-based formulation summed in
hash order, so weighted shares may differ from it in the last ulp).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.graphs.disjoint_set import DisjointSet

_NO_TIE = np.iinfo(np.int64).max


def _mirror_upper(a: np.ndarray) -> np.ndarray:
    """``a[i, j]`` for ``i < j``, mirrored below the diagonal."""
    upper = np.triu(a, 1)
    return upper + upper.T


def closure_mst(sub: np.ndarray, pts: Sequence) -> list[tuple[int, int, float]]:
    """The closure edges Kruskal accepts over ``pts``, in acceptance order.

    ``sub`` is the closure block among ``pts`` (row ``i`` sourced at
    ``pts[i]``; a closure object's ``submatrix(pts)``), and ``pts`` may
    be any labels with distinct reprs.  Returns ``k - 1`` triples
    ``(i, j, w)``: index pairs into ``pts`` with ``i < j`` and ``w`` read
    from row ``i``.

    Kruskal's key ``(w, repr(pts[i]), repr(pts[j]))`` is a strict total
    order on the edges (the points' reprs are distinct), under which the
    minimum spanning tree is unique: Prim with every comparison broken by
    the same key finds exactly Kruskal's tree in ``O(k^2)``, one vector
    pass per attached point, and sorting its ``k - 1`` edges by the key
    gives the acceptance order.  Breaking ties by weight alone would keep
    every share (any MST has the same sorted weights) but not the served
    tree, which expands whichever tied edge wins.
    """
    k = len(pts)
    if k <= 1:
        return []
    w = _mirror_upper(sub)  # C and C^T differ in the last ulp: read rows i < j
    rank = np.empty(k, dtype=np.int64)
    rank[sorted(range(k), key=lambda i: repr(pts[i]))] = np.arange(k)
    codes = rank[:, None] * k + rank[None, :]  # (repr(u), repr(v)) order
    tie = _mirror_upper(codes)

    # Per unattached point: its cheapest edge to the tree (weight, tie
    # code, tree end).  Attached points sit at (inf, _NO_TIE), behind
    # every unattached candidate, and ``live`` keeps them there.
    best_w, best_t = w[0].copy(), tie[0].copy()
    best_from = np.zeros(k, dtype=np.int64)
    live = np.ones(k, dtype=bool)
    live[0] = False
    best_w[0], best_t[0] = np.inf, _NO_TIE
    tail = np.empty(k - 1, dtype=np.int64)
    head = np.empty(k - 1, dtype=np.int64)
    for step in range(k - 1):
        v = int(best_w.argmin())
        tied = best_w == best_w[v]
        if np.count_nonzero(tied) > 1:
            v = int(np.where(tied, best_t, _NO_TIE).argmin())
        tail[step], head[step] = best_from[v], v
        live[v] = False
        best_w[v], best_t[v] = np.inf, _NO_TIE
        row_w, row_t = w[v], tie[v]
        better = row_w < best_w
        same = row_w == best_w
        if np.count_nonzero(same):
            better |= same & (row_t < best_t)
        better &= live
        np.copyto(best_w, row_w, where=better)
        np.copyto(best_t, row_t, where=better)
        np.copyto(best_from, v, where=better)

    lo, hi = np.minimum(tail, head), np.maximum(tail, head)
    weights = sub[lo, hi]
    order = np.lexsort((codes[lo, hi], weights))
    return [(int(lo[e]), int(hi[e]), float(weights[e])) for e in order]


def sort_moat_edges(
    pts: Sequence[int], edges: Sequence[tuple[int, int, float]]
) -> list[tuple[int, int, float]]:
    """An explicit edge list (index pairs into ``pts``) in the same Kruskal
    order :func:`closure_mst` uses — the entry for *sparse* metrics (e.g.
    the Mehlhorn auxiliary terminal graph, where only region-adjacent
    terminal pairs carry an edge)."""
    return sorted(
        ((int(a), int(b), float(w)) for a, b, w in edges),
        key=lambda e: (e[2], repr(pts[e[0]]), repr(pts[e[1]])),
    )


def moat_shares(
    closure,
    source: int,
    members: Sequence[int],
    weight_of: Callable[[int], float] | None = None,
) -> dict[int, float]:
    """``xi(R, .)`` of the JV moat process over ``{source} + members``
    in ``closure`` (a :class:`~repro.engine.closure.TerminalClosure`).

    Kruskal on the metric closure, reading edge weight as time: every
    component not containing the source accrues cost at unit rate between
    its merge events, split among its members (equally, or proportionally
    to ``weight_of`` when given).  An agent stops paying when its
    component absorbs the source.  ``sum(shares) == closure MST weight``
    exactly.
    """
    pts = [source, *members]
    if len(pts) <= 1:
        return {}
    return run_moat_process(pts, closure_mst(closure.submatrix(pts), pts), weight_of)


def moat_shares_sparse(
    source: int,
    members: Sequence[int],
    edges: Sequence[tuple[int, int, float]],
    weight_of: Callable[[int], float] | None = None,
) -> dict[int, float]:
    """The moat process over an explicit sparse metric: ``edges`` are
    ``(a, b, w)`` index pairs into ``[source, *members]``.  Same schedule
    semantics (and tie-breaking) as :func:`moat_shares`; components never
    absorbing the source simply keep paying until the last merge, so the
    shares still sum to the spanning-forest weight."""
    pts = [source, *members]
    if len(pts) <= 1:
        return {}
    return run_moat_process(pts, sort_moat_edges(pts, edges), weight_of)


def run_moat_process(
    pts: Sequence[int],
    sorted_edges: Sequence[tuple[int, int, float]],
    weight_of: Callable[[int], float] | None = None,
) -> dict[int, float]:
    """The shared Kruskal moat loop: ``pts[0]`` is the source; edges must
    already be in Kruskal order (see :func:`closure_mst` and
    :func:`sort_moat_edges`)."""
    k = len(pts)
    shares = [0.0] * k
    dsu = DisjointSet(range(k))
    birth = {i: 0.0 for i in range(k)}  # keyed by current component root
    src_root = 0
    for a, b, t in sorted_edges:
        ra, rb = dsu.find(a), dsu.find(b)
        if ra == rb:
            continue
        # The component of the edge's first endpoint pays first (the
        # reference event order), the source's component never pays.
        for root in (ra, rb):
            if root == src_root:
                continue
            span = t - birth[root]
            if span <= 0:
                continue
            side = dsu.members(root)
            if weight_of is None:
                for i in side:
                    shares[i] += span * 1.0 / len(side)
            else:
                total_w = sum(weight_of(pts[i]) for i in sorted(side))
                for i in side:
                    shares[i] += span * weight_of(pts[i]) / total_w
        dsu.union(a, b)
        merged_root = dsu.find(a)
        birth[merged_root] = t  # the merged component is born at time t
        if src_root in (ra, rb):
            src_root = merged_root
        if dsu.n_components == 1:
            break
    return {pts[i]: shares[i] for i in range(1, k)}


def moat_mst_weight(closure, source: int, members: Sequence[int]) -> float:
    """MST weight of the metric closure over ``{source} + members`` (the
    total the moat shares sum to), accumulated in Kruskal acceptance order
    so the float matches the reference sum exactly.  The loop is
    explicit on purpose: ``sum()`` of floats is compensated from Python
    3.12 and would differ from it in the last ulp."""
    pts = [source, *members]
    total = 0.0
    for _, _, w in closure_mst(closure.submatrix(pts), pts):
        total += w
    return total
