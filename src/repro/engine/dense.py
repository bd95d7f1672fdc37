"""Array-backed graph containers and vectorised graph kernels.

Two integer-labelled backends (stations are ``0..n-1``):

* :class:`DenseGraph` — an ``(n, n)`` weight matrix with ``inf`` marking
  absent edges.  The natural container for the paper's complete cost
  graphs (:class:`~repro.wireless.cost_graph.CostGraph` exposes one via
  ``as_dense()``), where adjacency maps waste both memory and time.
* :class:`CSRGraph` — compressed sparse rows for sparse instances (the
  random node-weighted Steiner graphs, contracted working graphs).

Both satisfy the dict-graph duck API that :mod:`repro.graphs` algorithms
consume (``nodes`` / ``neighbors`` / ``weight`` / ``edges`` / ...), so they
slot into :func:`repro.graphs.shortest_paths.dijkstra`,
:func:`repro.graphs.mst.prim_mst`, the KMB Steiner pipeline and the
Dreyfus-Wagner oracle unchanged — those entry points additionally dispatch
to the array kernels below when handed an :class:`ArrayGraph`.

Kernels use masked-min relaxation: each round settles the unsettled node of
minimum tentative distance (ties by smallest index) and relaxes its whole
adjacency row as one vector operation.  Distances are bit-identical to the
heap implementations — both compute, for every node, the minimum over paths
of the left-accumulated float path length, and float addition of
non-negative weights is monotone — but parent pointers may differ on exact
ties (any witness of the same distance is valid).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

_INF = np.inf


class ArrayGraph:
    """Base class / marker for integer-labelled array-backed graphs.

    Subclasses provide the dict-graph duck API plus the bulk kernels
    ``dijkstra_arrays`` and (undirected only) ``prim_arrays``.
    """

    directed = False

    @property
    def n(self) -> int:  # pragma: no cover - overridden
        raise NotImplementedError

    # -- dict-graph duck API (shared pieces) -------------------------------
    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))

    def __contains__(self, node: object) -> bool:
        return isinstance(node, (int, np.integer)) and 0 <= int(node) < self.n

    def nodes(self) -> list[int]:
        return list(range(self.n))


class DenseGraph(ArrayGraph):
    """Dense matrix graph: ``matrix[i, j]`` is the weight of edge/arc
    ``(i, j)``; ``inf`` means absent.  Weights must be non-negative.

    ``copy=False`` takes *ownership* of the array: its diagonal is
    overwritten with ``inf`` and it is frozen read-only.  Only pass it for
    arrays built solely for this graph (read-only inputs are copied
    regardless, so a shared matrix is never corrupted).
    """

    def __init__(self, matrix: np.ndarray, *, directed: bool = False,
                 copy: bool = True) -> None:
        m = np.array(matrix, dtype=float, copy=copy)
        if not m.flags.writeable:
            m = m.copy()
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {m.shape}")
        if (m[np.isfinite(m)] < 0).any():
            raise ValueError("edge weights must be non-negative")
        np.fill_diagonal(m, _INF)  # no self-loops
        if not directed and not np.array_equal(m, m.T):
            raise ValueError("undirected DenseGraph needs a symmetric matrix")
        m.setflags(write=False)
        self._w = m
        self.directed = directed

    # -- constructors ------------------------------------------------------
    @classmethod
    def from_cost_graph(cls, network) -> "DenseGraph":
        """The complete cost graph of a wireless network (zero-cost edges
        between co-located stations are kept — only ``inf`` means absent)."""
        return cls(network.matrix, directed=False)

    @classmethod
    def from_graph(cls, graph) -> "DenseGraph":
        """Convert an adjacency-map graph whose nodes are exactly
        ``0..n-1`` (raises otherwise — relabel first if needed)."""
        n = len(graph)
        if not _contiguous_int_labels(graph):
            raise ValueError("from_graph needs integer node labels 0..n-1")
        m = np.full((n, n), _INF)
        for u, v, w in graph.edges():
            m[u, v] = w
            if not graph.directed:
                m[v, u] = w
        return cls(m, directed=graph.directed, copy=False)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, float]],
                   *, directed: bool = False) -> "DenseGraph":
        """Build from an edge list; duplicates keep the minimum weight."""
        m = np.full((n, n), _INF)
        for u, v, w in edges:
            if w < m[u, v]:
                m[u, v] = w
                if not directed:
                    m[v, u] = w
        return cls(m, directed=directed, copy=False)

    # -- queries -----------------------------------------------------------
    @property
    def n(self) -> int:
        return self._w.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        """The weight matrix (``inf`` off-edges, read-only)."""
        return self._w

    def has_edge(self, u: int, v: int) -> bool:
        return bool(np.isfinite(self._w[u, v]))

    def weight(self, u: int, v: int) -> float:
        w = self._w[u, v]
        if not np.isfinite(w):
            raise KeyError(f"no edge ({u}, {v})")
        return float(w)

    def neighbors(self, node: int) -> Iterator[tuple[int, float]]:
        row = self._w[node]
        for j in np.flatnonzero(np.isfinite(row)):
            yield int(j), float(row[j])

    successors = neighbors  # out-arcs when directed

    def degree(self, node: int) -> int:
        return int(np.isfinite(self._w[node]).sum())

    def edges(self) -> Iterator[tuple[int, int, float]]:
        w = self._w
        mask = np.isfinite(w)
        if not self.directed:
            mask &= np.triu(np.ones_like(mask), 1)
        for u, v in zip(*np.nonzero(mask)):
            yield int(u), int(v), float(w[u, v])

    def number_of_edges(self) -> int:
        count = int(np.isfinite(self._w).sum())
        return count if self.directed else count // 2

    def total_weight(self) -> float:
        finite = self._w[np.isfinite(self._w)]
        total = float(finite.sum())
        return total if self.directed else total / 2.0

    # -- kernels -----------------------------------------------------------
    def dijkstra_arrays(
        self, source: int, targets: Iterable[int] | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Single-source shortest paths by masked-min relaxation.

        Returns ``(dist, parent, order)``: tentative distances (``inf`` if
        unsettled/unreachable), predecessor indices (-1 at the source and
        for never-improved nodes), and the settled nodes in settle order.
        With ``targets`` the search stops once every target is settled —
        only settled entries of ``dist``/``parent`` are meaningful, exactly
        like the early-exit dict Dijkstra.
        """
        return _dense_dijkstra(self._w, source, targets)

    def prim_arrays(self, root: int) -> list[tuple[int, int, float]]:
        """Prim MST of ``root``'s component as ``(parent, child, w)`` in
        attachment order (mirrors :func:`repro.graphs.mst.prim_mst`)."""
        if self.directed:
            raise ValueError("Prim MST needs an undirected graph")
        w = self._w
        n = self.n
        key = w[root].copy()
        attach = np.full(n, root, dtype=np.int64)
        in_tree = np.zeros(n, dtype=bool)
        in_tree[root] = True
        edges: list[tuple[int, int, float]] = []
        for _ in range(n - 1):
            masked = np.where(in_tree, _INF, key)
            u = int(np.argmin(masked))
            if masked[u] == _INF:
                break  # disconnected: only root's component is spanned
            in_tree[u] = True
            edges.append((int(attach[u]), u, float(key[u])))
            row = w[u]
            better = (row < key) & ~in_tree
            key[better] = row[better]
            attach[better] = u
        return edges

    def all_pairs_arrays(self) -> np.ndarray:
        """All-pairs shortest distances, all sources relaxed in lockstep."""
        return batched_dijkstra(self._w)

    def metric_closure_arrays(
        self, terminals: Iterable[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Shortest-path distances and predecessors from each terminal to
        every node: row ``i`` is the Dijkstra field (and shortest-path
        tree) of ``terminals[i]``."""
        return batched_dijkstra(self._w, list(terminals), return_parents=True)

    def multi_source_arrays(
        self, seeds: Iterable[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One Dijkstra pass from *all* seeds at once (Voronoi partition).

        Returns ``(dist, nearest, parent)``: per node the distance to its
        closest seed, the seed it is closest to (-1 if unreachable), and
        the predecessor on that shortest path (-1 at seeds and unreached
        nodes).  Exact ties between seeds resolve to the seed whose region
        claimed the node first under masked-min settle order (smallest
        node index each round) — deterministic for fixed inputs.
        """
        return _dense_multi_source(self._w, list(seeds))


class CSRGraph(ArrayGraph):
    """Compressed-sparse-row graph over nodes ``0..n-1``.

    ``indptr``/``indices``/``weights`` follow the usual CSR convention;
    undirected graphs store both arc directions.  At most one arc per
    ordered node pair and no self-loops (the convention every container
    in this codebase shares — the kernels' fancy-indexed relaxation would
    let the *last* duplicate win instead of the minimum, so duplicates
    are rejected here; :meth:`from_graph` / :meth:`from_edges` collapse
    them to the cheapest arc before construction).
    """

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray,
                 weights: np.ndarray, *, directed: bool = False) -> None:
        self._n = int(n)
        self._indptr = np.asarray(indptr, dtype=np.int64)
        self._indices = np.asarray(indices, dtype=np.int64)
        self._weights = np.asarray(weights, dtype=float)
        if len(self._indptr) != self._n + 1:
            raise ValueError("indptr must have n + 1 entries")
        if len(self._indices) != len(self._weights):
            raise ValueError("indices and weights must align")
        if (self._weights < 0).any():
            raise ValueError("edge weights must be non-negative")
        for u in range(self._n):
            row = self._indices[self._indptr[u]:self._indptr[u + 1]]
            if (row == u).any():
                raise ValueError(f"self-loops are not supported (node {u})")
            if len(np.unique(row)) != len(row):
                raise ValueError(f"duplicate arcs out of node {u}; collapse "
                                 "them first (see from_edges)")
        self.directed = directed

    @classmethod
    def from_graph(cls, graph) -> "CSRGraph":
        """Convert an adjacency-map graph with node labels ``0..n-1``."""
        n = len(graph)
        if not _contiguous_int_labels(graph):
            raise ValueError("from_graph needs integer node labels 0..n-1")
        rows: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for u, v, w in graph.edges():
            rows[u].append((v, w))
            if not graph.directed:
                rows[v].append((u, w))
        return cls._from_rows(n, rows, directed=graph.directed)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int, float]],
                   *, directed: bool = False) -> "CSRGraph":
        best: dict[tuple[int, int], float] = {}
        for u, v, w in edges:
            arcs = [(u, v)] if directed else [(u, v), (v, u)]
            for a in arcs:
                if a not in best or w < best[a]:
                    best[a] = w
        rows: list[list[tuple[int, float]]] = [[] for _ in range(n)]
        for (u, v), w in best.items():
            rows[u].append((v, w))
        return cls._from_rows(n, rows, directed=directed)

    @classmethod
    def _from_rows(cls, n: int, rows: list[list[tuple[int, float]]],
                   *, directed: bool) -> "CSRGraph":
        indptr = np.zeros(n + 1, dtype=np.int64)
        indices: list[int] = []
        weights: list[float] = []
        for u in range(n):
            rows[u].sort()
            for v, w in rows[u]:
                indices.append(v)
                weights.append(w)
            indptr[u + 1] = len(indices)
        return cls(n, indptr, np.asarray(indices, dtype=np.int64),
                   np.asarray(weights, dtype=float), directed=directed)

    # -- queries -----------------------------------------------------------
    @property
    def n(self) -> int:
        return self._n

    def _row(self, node: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._indptr[node], self._indptr[node + 1]
        return self._indices[lo:hi], self._weights[lo:hi]

    def has_edge(self, u: int, v: int) -> bool:
        idx, _ = self._row(u)
        return bool((idx == v).any())

    def weight(self, u: int, v: int) -> float:
        idx, w = self._row(u)
        hit = np.flatnonzero(idx == v)
        if len(hit) == 0:
            raise KeyError(f"no edge ({u}, {v})")
        return float(w[hit[0]])

    def neighbors(self, node: int) -> Iterator[tuple[int, float]]:
        idx, w = self._row(node)
        for j, wj in zip(idx, w):
            yield int(j), float(wj)

    successors = neighbors

    def degree(self, node: int) -> int:
        return int(self._indptr[node + 1] - self._indptr[node])

    def edges(self) -> Iterator[tuple[int, int, float]]:
        for u in range(self._n):
            idx, w = self._row(u)
            for v, wv in zip(idx, w):
                if self.directed or u < v:
                    yield u, int(v), float(wv)

    def number_of_edges(self) -> int:
        count = len(self._indices)
        return count if self.directed else count // 2

    def total_weight(self) -> float:
        total = float(self._weights.sum())
        return total if self.directed else total / 2.0

    # -- kernels -----------------------------------------------------------
    def dijkstra_arrays(
        self, source: int, targets: Iterable[int] | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """See :meth:`DenseGraph.dijkstra_arrays` (row slices instead of
        full-matrix rows)."""
        n = self._n
        dist = np.full(n, _INF)
        dist[source] = 0.0
        parent = np.full(n, -1, dtype=np.int64)
        settled = np.zeros(n, dtype=bool)
        order: list[int] = []
        remaining = None if targets is None else {int(t) for t in targets}
        for _ in range(n):
            masked = np.where(settled, _INF, dist)
            u = int(np.argmin(masked))
            if masked[u] == _INF:
                break
            settled[u] = True
            order.append(u)
            if remaining is not None:
                remaining.discard(u)
                if not remaining:
                    break
            idx, w = self._row(u)
            cand = dist[u] + w
            better = cand < dist[idx]
            dist[idx[better]] = cand[better]
            parent[idx[better]] = u
        return dist, parent, np.asarray(order, dtype=np.int64)

    def heap_dijkstra_arrays(
        self, source: int, targets: Iterable[int] | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Heap-based single-source shortest paths: ``O(m + n log n)``-ish
        instead of the ``O(n^2)`` masked-min loop of
        :meth:`dijkstra_arrays` — the right kernel for sparse instances.

        Distances are bit-identical to the masked-min kernel (both compute
        the same min over left-accumulated float path sums); parent
        pointers may differ on exact distance ties.  Same return contract
        as :meth:`dijkstra_arrays`.
        """
        return _csr_heap_dijkstra(self._n, self._indptr, self._indices,
                                  self._weights, (source,), targets)[:3]

    def multi_source_arrays(
        self, seeds: Iterable[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """One heap Dijkstra pass seeded at every node of ``seeds``;
        returns ``(dist, nearest, parent)`` as in
        :meth:`DenseGraph.multi_source_arrays`."""
        dist, parent, _, nearest = _csr_heap_dijkstra(
            self._n, self._indptr, self._indices, self._weights,
            list(seeds), None)
        return dist, nearest, parent

    def metric_closure_arrays(
        self, terminals: Iterable[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Shortest-path distances and predecessors from each terminal to
        every node (one heap Dijkstra per terminal: ``O(k (m + n log n))``
        total)."""
        terminals = list(terminals)
        dist = np.full((len(terminals), self._n), _INF)
        parent = np.full((len(terminals), self._n), -1, dtype=np.int64)
        for i, t in enumerate(terminals):
            dist[i], parent[i], _ = self.heap_dijkstra_arrays(int(t))
        return dist, parent

    def all_pairs_arrays(self) -> np.ndarray:
        """All-pairs shortest distances (a heap Dijkstra per node — no
        dense ``(n, n)`` intermediate beyond the result itself)."""
        return self.metric_closure_arrays(range(self._n))[0]

    def prim_arrays(self, root: int) -> list[tuple[int, int, float]]:
        if self.directed:
            raise ValueError("Prim MST needs an undirected graph")
        n = self._n
        key = np.full(n, _INF)
        attach = np.full(n, root, dtype=np.int64)
        in_tree = np.zeros(n, dtype=bool)
        in_tree[root] = True
        idx, w = self._row(root)
        key[idx] = w
        edges: list[tuple[int, int, float]] = []
        for _ in range(n - 1):
            masked = np.where(in_tree, _INF, key)
            u = int(np.argmin(masked))
            if masked[u] == _INF:
                break
            in_tree[u] = True
            edges.append((int(attach[u]), u, float(key[u])))
            idx, w = self._row(u)
            better = (w < key[idx]) & ~in_tree[idx]
            key[idx[better]] = w[better]
            attach[idx[better]] = u
        return edges


# ---------------------------------------------------------------------------
# Shared kernels
# ---------------------------------------------------------------------------

def _contiguous_int_labels(graph) -> bool:
    """True iff the dict graph's node labels are exactly ``0..n-1``."""
    n = len(graph)
    seen = [False] * n
    for x in graph.nodes():
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < n:
            return False
        seen[x] = True
    return all(seen)

def _dense_dijkstra(
    w: np.ndarray, source: int, targets: Iterable[int] | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n = w.shape[0]
    dist = np.full(n, _INF)
    dist[source] = 0.0
    parent = np.full(n, -1, dtype=np.int64)
    settled = np.zeros(n, dtype=bool)
    order: list[int] = []
    remaining = None if targets is None else {int(t) for t in targets}
    for _ in range(n):
        masked = np.where(settled, _INF, dist)
        u = int(np.argmin(masked))
        if masked[u] == _INF:
            break
        settled[u] = True
        order.append(u)
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        cand = dist[u] + w[u]
        better = cand < dist
        if better.any():
            dist[better] = cand[better]
            parent[better] = u
    return dist, parent, np.asarray(order, dtype=np.int64)


def _dense_multi_source(
    w: np.ndarray, seeds: list[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Masked-min Dijkstra with every seed at distance 0; ``nearest``
    propagates the claiming seed alongside the distance field."""
    n = w.shape[0]
    dist = np.full(n, _INF)
    nearest = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    if not seeds:
        return dist, nearest, parent
    seed_idx = np.asarray(seeds, dtype=np.int64)
    dist[seed_idx] = 0.0
    nearest[seed_idx] = seed_idx
    settled = np.zeros(n, dtype=bool)
    for _ in range(n):
        masked = np.where(settled, _INF, dist)
        u = int(np.argmin(masked))
        if masked[u] == _INF:
            break
        settled[u] = True
        cand = dist[u] + w[u]
        better = cand < dist
        if better.any():
            dist[better] = cand[better]
            nearest[better] = nearest[u]
            parent[better] = u
    return dist, nearest, parent


def _csr_heap_dijkstra(
    n: int,
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    seeds,
    targets: Iterable[int] | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Heap Dijkstra over CSR arrays, seeded at one or many nodes.

    Returns ``(dist, parent, order, nearest)``.  Heap ties resolve by
    smallest node index (the entries are ``(dist, node)`` pairs), so the
    output is deterministic for fixed inputs.
    """
    import heapq

    dist = np.full(n, _INF)
    parent = np.full(n, -1, dtype=np.int64)
    nearest = np.full(n, -1, dtype=np.int64)
    settled = np.zeros(n, dtype=bool)
    order: list[int] = []
    heap: list[tuple[float, int]] = []
    for s in seeds:
        s = int(s)
        dist[s] = 0.0
        nearest[s] = s
        heapq.heappush(heap, (0.0, s))
    remaining = None if targets is None else {int(t) for t in targets}
    while heap:
        d, u = heapq.heappop(heap)
        if settled[u] or d > dist[u]:
            continue
        settled[u] = True
        order.append(u)
        if remaining is not None:
            remaining.discard(u)
            if not remaining:
                break
        lo, hi = indptr[u], indptr[u + 1]
        for v, wv in zip(indices[lo:hi], weights[lo:hi]):
            cand = d + wv
            if cand < dist[v]:
                dist[v] = cand
                parent[v] = u
                nearest[v] = nearest[u]
                heapq.heappush(heap, (float(cand), int(v)))
    return dist, parent, np.asarray(order, dtype=np.int64), nearest


def batched_dijkstra(
    weights: np.ndarray,
    sources: Iterable[int] | None = None,
    *,
    return_parents: bool = False,
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Many single-source Dijkstras advanced in lockstep.

    ``weights`` is a dense ``(n, n)`` arc-weight matrix (``inf`` = absent;
    rows are out-arcs, so directed graphs — e.g. the node-weighted metric
    where walking ``u -> v`` pays ``w(v)`` — work unchanged).  Each loop
    iteration settles one node *per source* and relaxes all the settled
    rows as a single ``(S, n)`` vector operation, so the total work is
    ``O(n)`` numpy passes instead of ``S`` python heap runs.

    Returns the ``(S, n)`` distance matrix (row ``i`` = field of
    ``sources[i]``; all sources when omitted), plus the ``(S, n)``
    predecessor matrix when ``return_parents`` is set.
    """
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    if w.ndim != 2 or w.shape[1] != n:
        raise ValueError(f"arc-weight matrix must be square, got {w.shape}")
    src = np.arange(n) if sources is None else np.asarray(list(sources), dtype=np.int64)
    s = len(src)
    dist = np.full((s, n), _INF)
    if s == 0 or n == 0:
        return (dist, np.full((s, n), -1, dtype=np.int64)) if return_parents else dist
    rows = np.arange(s)
    dist[rows, src] = 0.0
    parent = np.full((s, n), -1, dtype=np.int64)
    settled = np.zeros((s, n), dtype=bool)
    for _ in range(n):
        masked = np.where(settled, _INF, dist)
        u = np.argmin(masked, axis=1)
        du = masked[rows, u]
        active = du < _INF
        if not active.any():
            break
        settled[rows[active], u[active]] = True
        cand = du[:, None] + w[u]  # exhausted rows stay at inf: no updates
        better = cand < dist
        if return_parents:
            np.copyto(parent, u[:, None], where=better)
        dist[better] = cand[better]
    return (dist, parent) if return_parents else dist
