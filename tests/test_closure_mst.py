"""Bit-identity of the closure-MST kernel against the retired full sort.

:func:`repro.engine.moats.closure_mst` replaced two references that are
frozen here, test-side, as the oracles:

* ``reference_sorted_closure_edges`` — every closure edge among ``pts``
  sorted by Kruskal's key ``(w, repr(u), repr(v))``, fed to the moat loop
  and the MST-weight sum (O(k^2 log k) per call);
* ``reference_kmb`` — steps 1-2 of the dense KMB served tree as they ran
  before: a batched Dijkstra per request, all ``k (k - 1)`` witness
  paths, and ``kruskal_complete`` on a dict graph.

Every comparison is ``==``: equal-split and weighted shares, the closure
MST weight, and the served tree's edges, power vector and cost.  The
exact integer lattices are the point of the file — thousands of exactly
tied closure edges, where a tie broken by weight alone keeps the shares
but changes the served tree.
"""

import numpy as np
import pytest

from repro.core.euclidean_bb import EuclideanJVMechanism
from repro.core.jv_steiner import JVSteinerShares
from repro.engine.closure import TerminalClosure
from repro.engine.dense import DenseGraph, batched_dijkstra
from repro.engine.moats import closure_mst, moat_mst_weight, run_moat_process
from repro.geometry.layouts import LAYOUT_FAMILIES, layout_points
from repro.geometry.points import grid_points
from repro.graphs.adjacency import Graph
from repro.graphs.disjoint_set import DisjointSet
from repro.graphs.mst import kruskal_complete
from repro.graphs.random_graphs import random_connected_graph
from repro.graphs.shortest_paths import dijkstra, reconstruct_path
from repro.graphs.steiner import kmb_steiner_tree, pruned_spanning_tree
from repro.wireless.cost_graph import CostGraph, EuclideanCostGraph
from repro.wireless.multicast import steiner_heuristic_power

LATTICES = [(6, 6), (9, 9), (5, 8)]
ALPHAS = [1.0, 2.0, 3.0]


# -- frozen references -------------------------------------------------------

def reference_sorted_closure_edges(closure, pts):
    """Every closure edge among ``pts`` in Kruskal order (the retired
    ``engine.moats._sorted_closure_edges``)."""
    k = len(pts)
    sub = closure.submatrix(pts)
    iu, iv = np.triu_indices(k, 1)
    w = sub[iu, iv]
    order = sorted(
        range(len(w)),
        key=lambda e: (w[e], repr(pts[int(iu[e])]), repr(pts[int(iv[e])])),
    )
    return [(int(iu[e]), int(iv[e]), float(w[e])) for e in order]


def reference_accepted(k, sorted_edges):
    """The edges Kruskal accepts from a sorted edge list, in order."""
    dsu = DisjointSet(range(k))
    accepted = []
    for a, b, w in sorted_edges:
        if dsu.union(a, b):
            accepted.append((a, b, w))
            if dsu.n_components == 1:
                break
    return accepted


def reference_shares(closure, source, members, weights=None):
    pts = [source, *members]
    weight_of = None if weights is None else (lambda i: float(weights.get(i, 1.0)))
    return run_moat_process(pts, reference_sorted_closure_edges(closure, pts),
                            weight_of)


def reference_mst_weight(closure, source, members):
    pts = [source, *members]
    total = 0.0
    for _, _, w in reference_accepted(
            len(pts), reference_sorted_closure_edges(closure, pts)):
        total += w
    return total


def reference_kmb(network, terminals):
    """The dense KMB served tree before the shared kernel: per-request
    batched Dijkstra, all witness paths, dict-graph Kruskal (steps 1-2),
    then the unchanged steps 3-4."""
    graph = network.as_dense()
    dist_mat, parent_mat = batched_dijkstra(graph.matrix, terminals,
                                            return_parents=True)
    distance, paths = {}, {}
    for a, t in enumerate(terminals):
        row, parents = {}, parent_mat[a]
        for other in terminals:
            if other == t:
                continue
            row[other] = float(dist_mat[a, other])
            path = [other]
            while path[-1] != t:
                path.append(int(parents[path[-1]]))
            path.reverse()
            paths[(t, other)] = path
        distance[t] = row
    mst, _ = kruskal_complete(
        terminals, lambda u, v: 0.0 if u == v else distance[u][v])
    expanded = Graph()
    expanded.add_nodes(terminals)
    for u, v, _ in mst:
        path = paths[(u, v)]
        for a, b in zip(path, path[1:]):
            expanded.add_edge(a, b, graph.weight(a, b))
    return pruned_spanning_tree(expanded, terminals)


# -- the comparison ----------------------------------------------------------

def assert_bit_identical(network, source, members):
    """Every closure-MST consumer over ``{source} + members`` equals its
    reference exactly, through the all-stations closure and a
    session-style terminal-sourced one alike."""
    members = sorted(members)
    pts = [source, *members]
    full = TerminalClosure.all_stations(network)
    terminal = TerminalClosure.from_network(network, pts)
    expected_edges = reference_accepted(
        len(pts), reference_sorted_closure_edges(full, pts))
    assert closure_mst(full.submatrix(pts), pts) == expected_edges
    assert closure_mst(terminal.submatrix(pts), pts) == expected_edges

    weights = {a: 1.0 + (a % 3) for a in members}
    R = frozenset(members)
    for family in (None, weights):
        expected = reference_shares(full, source, members, family)
        assert JVSteinerShares(network, source, family).shares(R) == expected
        assert JVSteinerShares(network, source, family,
                               closure=terminal).shares(R) == expected
    mst_weight = reference_mst_weight(full, source, members)
    assert JVSteinerShares(network, source, closure=terminal) \
        .closure_mst_weight(R) == mst_weight

    tree = reference_kmb(network, pts)
    power = steiner_heuristic_power(network, [(u, v) for u, v, _ in tree.edges],
                                    source)
    assert kmb_steiner_tree(network.as_dense(), pts, closure=terminal) == tree
    assert kmb_steiner_tree(network.as_dense(), pts) == tree

    # The served mechanism: everyone bids far above any share, so the
    # served set is exactly ``members``.
    result = EuclideanJVMechanism(network, source, agents=members).run(
        {a: 1e12 for a in members})
    assert result.receivers == R
    assert result.shares == {a: max(0.0, s)
                             for a, s in reference_shares(full, source, members).items()}
    assert result.extra["closure_mst_weight"] == mst_weight
    assert np.array_equal(result.power.powers, power.powers)
    assert result.cost == power.cost()


def receiver_sets(n, source, rng, count):
    others = [i for i in range(n) if i != source]
    sets = [others]
    for _ in range(count):
        size = int(rng.integers(1, len(others) + 1))
        sets.append(sorted(int(x) for x in rng.choice(others, size=size,
                                                      replace=False)))
    return sets


@pytest.mark.parametrize("family", LAYOUT_FAMILIES)
@pytest.mark.parametrize("seed", [0, 1])
def test_layout_families(family, seed):
    network = EuclideanCostGraph(
        layout_points(family, 24, 2, side=10.0, seed=seed), 2.0)
    rng = np.random.default_rng(seed)
    for members in receiver_sets(network.n, 0, rng, 3):
        assert_bit_identical(network, 0, members)


@pytest.mark.parametrize("shape", LATTICES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("where", ["corner", "centre"])
def test_exact_lattices(shape, alpha, where):
    rows, cols = shape
    network = EuclideanCostGraph(grid_points(rows, cols), alpha)
    source = 0 if where == "corner" else (rows // 2) * cols + cols // 2
    rng = np.random.default_rng(rows * cols + int(alpha))
    for members in receiver_sets(network.n, source, rng, 2):
        assert_bit_identical(network, source, members)


def test_lattice_ties_pin_the_served_tree():
    """On a lattice the tie-break decides which MST Kruskal returns: a
    reversed tie order keeps the weight but picks other edges, so the
    served-tree checks above are not vacuous."""
    network = EuclideanCostGraph(grid_points(6, 6), 2.0)
    pts = list(range(36))
    full = TerminalClosure.all_stations(network)
    edges = closure_mst(full.submatrix(pts), pts)
    reversed_ties = reference_accepted(len(pts), sorted(
        reference_sorted_closure_edges(full, pts),
        key=lambda e: (e[2], repr(pts[e[1]]), repr(pts[e[0]]))))
    assert sum(w for *_, w in edges) == sum(w for *_, w in reversed_ties)
    assert {(a, b) for a, b, _ in edges} != {(a, b) for a, b, _ in reversed_ties}


def test_mst_weight_is_added_in_acceptance_order():
    """Ten closure-MST edges of 0.1: a left-to-right float sum gives
    0.9999999999999999, a compensated one (``sum()`` from Python 3.12)
    1.0.  The reported weight must be the former on every Python."""
    k = 11
    costs = np.full((k, k), 5.0)
    np.fill_diagonal(costs, 0.0)
    for i in range(k - 1):
        costs[i, i + 1] = costs[i + 1, i] = 0.1
    closure = TerminalClosure.all_stations(CostGraph(costs))
    expected = 0.0
    for _ in range(k - 1):
        expected += 0.1
    assert expected != 1.0
    assert moat_mst_weight(closure, 0, range(1, k)) == expected
    assert JVSteinerShares(EuclideanCostGraph(grid_points(1, k), 2.0), 0,
                           closure=closure).closure_mst_weight(
        frozenset(range(1, k))) == expected


@pytest.mark.parametrize("seed", range(4))
def test_hashable_node_graphs_take_the_same_kernel(seed):
    """A dict graph with string labels: KMB through the kernel equals the
    old dict pipeline (per-terminal Dijkstra, ``kruskal_complete``)."""
    g = random_connected_graph(14, rng=seed)
    graph = Graph()
    for u, v, w in g.edges():
        graph.add_edge(f"v{u}", f"v{v}", w)
    terminals = [f"v{i}" for i in (0, 3, 5, 8, 11, 12, 13)]
    runs = {t: dijkstra(graph, t) for t in terminals}
    mst, _ = kruskal_complete(
        terminals, lambda u, v: 0.0 if u == v else runs[u][0][v])
    expanded = Graph()
    expanded.add_nodes(terminals)
    for u, v, _ in mst:
        path = reconstruct_path(runs[u][1], v)
        for a, b in zip(path, path[1:]):
            expanded.add_edge(a, b, graph.weight(a, b))
    assert kmb_steiner_tree(graph, terminals) == pruned_spanning_tree(
        expanded, terminals)


def test_disconnected_terminals_still_raise():
    network = EuclideanCostGraph(grid_points(2, 2), 2.0)
    matrix = network.as_dense().matrix.copy()
    matrix[3, :] = matrix[:, 3] = np.inf
    graph = DenseGraph(matrix)
    closure = TerminalClosure.from_graph(graph, [0, 1, 3])
    with pytest.raises(ValueError, match="disconnected"):
        kmb_steiner_tree(graph, [0, 1, 3], closure=closure)
    with pytest.raises(ValueError, match="disconnected"):
        kmb_steiner_tree(graph, [0, 1, 3])
