"""Node-weighted Steiner trees (NWST): the substrate of paper section 2.2.

The paper's NWST cost-sharing mechanism is built on the Guha-Khuller greedy:
repeatedly pick the minimum-*ratio* "3+ branch-spider", shrink it into a new
terminal, and finally connect the last two terminals optimally.  This module
provides:

* :class:`Spider` — a candidate (branch-)spider with its covered terminals,
  node set, cost and ratio;
* :func:`find_min_ratio_spider` — exact minimum-ratio search over all
  centers, supporting both classic Klein-Ravi spiders (single-terminal legs)
  and Guha-Khuller branch-spiders (legs may be 2-terminal branches through a
  junction node), via a subset DP over the terminals;
* :class:`NWSTState` — a contractible working copy of an instance
  (shrinking spiders into zero-weight meta-terminals, tracking which
  *original* nodes have been bought and which original terminals each
  meta-terminal contains), shared by the plain algorithm and the mechanism;
* :class:`GreedySpiderSolver` — the plain approximation algorithm ``AST``
  (no utilities), achieving 1.5 ln k with branch-spiders;
* :func:`exact_node_weighted_steiner` — exact oracle (node-weighted
  Dreyfus-Wagner), exponential in the number of terminals.

Conventions: node weights are non-negative; terminal weights are typically 0
(the paper's WLOG normalisation), but nothing here requires it.  Leg costs
computed through shared intermediate nodes are *upper bounds* (standard in
these greedy analyses); the bought node set is the union, whose true weight
never exceeds the charged cost.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.engine.dense import batched_dijkstra
from repro.graphs.adjacency import Graph
from repro.graphs.node_weighted import node_weighted_arc_matrix, node_weighted_dijkstra
from repro.graphs.shortest_paths import reconstruct_path

Node = Hashable

_INF = float("inf")

# ``distance_mode='auto'`` switches to terminal-sourced distance columns at
# this node count.  Below it the full all-sources sweep is cheap and keeps
# the historical bit-exact floats; above it the k reverse-graph Dijkstras
# win asymptotically (O(k n^2) vs O(n^3) dense work) and the possible
# last-ulp differences (reversed summation order along each path) are an
# accepted trade at that scale.
TERMINAL_COLUMNS_MIN_NODES = 192


@dataclass(frozen=True)
class Spider:
    """A candidate (branch-)spider in the *current* (possibly contracted) graph.

    ``n_countable`` is the number of covered terminals that participate in
    cost sharing (paper section 2.2.3 excludes the source terminal from the
    ratio); it defaults to all of them.
    """

    center: Node
    terminals: frozenset
    nodes: frozenset  # every current-graph node the spider buys (incl. center, paths)
    cost: float  # w(center) + sum of leg costs (an upper bound if legs overlap)
    n_countable: int = -1  # -1 sentinel: all terminals countable

    def __post_init__(self) -> None:
        if self.n_countable < 0:
            object.__setattr__(self, "n_countable", len(self.terminals))

    @property
    def ratio(self) -> float:
        return self.cost / self.n_countable


def find_min_ratio_spider(
    graph: Graph,
    weights: Mapping[Node, float],
    terminals: Iterable[Node],
    *,
    min_terminals: int = 3,
    mode: str = "branch",
    max_dp_terminals: int = 16,
    counts: Mapping[Node, int] | None = None,
    distance_mode: str = "auto",
) -> Spider | None:
    """Exact minimum-ratio spider over all centers.

    ``mode='classic'`` restricts to Klein-Ravi spiders (every leg reaches one
    terminal); ``mode='branch'`` additionally allows Guha-Khuller 2-terminal
    branches (leg = path to a junction plus two junction-to-terminal paths).
    Ratio ties are broken deterministically (smaller cost, then repr of the
    center) so that mechanism re-runs are reproducible — the strategyproofness
    argument (Thm 2.3) needs the selection to be utility-independent.

    ``counts`` (0/1 per terminal, default all 1) implements the paper's
    section 2.2.3 modification: the ratio divides by the number of
    *countable* covered terminals, and a spider must cover at least one.
    The structural "3+" requirement stays on the total covered terminals.

    ``distance_mode`` picks how the terminal distance columns ``T[v, t]``
    are computed.  ``'full'``: one all-sources lockstep sweep (the
    historical path; also yields the full ``D`` the branch subset DP
    needs).  ``'terminal'``: ``k`` reverse-graph Dijkstras sourced at the
    terminals — O(k) instead of O(n) sweeps, the n=10^3..10^4 scaling
    path; incompatible with the branch DP (which reads whole ``D`` rows)
    and *not* guaranteed bit-identical to ``'full'`` (per-path sums
    accumulate in the opposite order).  ``'auto'`` (default): terminal
    columns whenever the branch DP is not engaged and the graph has at
    least :data:`TERMINAL_COLUMNS_MIN_NODES` nodes, else full.

    Returns ``None`` when no spider covering ``min_terminals`` terminals
    exists (e.g. fewer terminals remain).
    """
    if mode not in ("classic", "branch"):
        raise ValueError(f"unknown spider mode: {mode!r}")
    if distance_mode not in ("full", "terminal", "auto"):
        raise ValueError(f"unknown distance mode: {distance_mode!r}")
    term_list = list(dict.fromkeys(terminals))
    k = len(term_list)
    if k < min_terminals:
        return None
    if mode == "branch" and k > max_dp_terminals:
        mode = "classic"  # subset DP would be too large; classic stays exact for KR spiders
    count_of = [1 if counts is None else int(counts.get(t, 1)) for t in term_list]
    countable_mask = 0
    for i, c in enumerate(count_of):
        if c > 0:
            countable_mask |= 1 << i

    # All-sources node-weighted distances in one lockstep sweep (distances
    # exclude the source's own weight): D[a, b] = dist node a -> node b,
    # T = D restricted to terminal columns (profiling: the junction
    # enumeration is the hot path of the whole NWST pipeline).  Identical
    # floats to per-node heap Dijkstras, at a fraction of the cost.
    node_list = graph.nodes()
    node_index = {u: a for a, u in enumerate(node_list)}
    n_nodes = len(node_list)
    term_cols = [node_index[t] for t in term_list]
    needs_full = mode == "branch"  # the pair DP reads whole D rows per center
    if distance_mode == "terminal" and needs_full:
        raise ValueError(
            "distance_mode='terminal' cannot serve the branch subset DP "
            "(it needs all-sources distances); use mode='classic' or "
            "distance_mode='full'/'auto'")
    use_terminal = not needs_full and (
        distance_mode == "terminal"
        or (distance_mode == "auto" and n_nodes >= TERMINAL_COLUMNS_MIN_NODES))
    arc = node_weighted_arc_matrix(graph, weights, node_list)
    if use_terminal:
        # dist(v -> t) read off a Dijkstra sourced at t on the transposed
        # arc matrix: k sweeps instead of n.  D itself is never needed —
        # the classic/prefix paths only consume terminal columns.
        D = None
        T = (batched_dijkstra(np.ascontiguousarray(arc.T), term_cols).T
             if k else np.zeros((n_nodes, 0)))
    else:
        D = batched_dijkstra(arc)
        T = D[:, term_cols] if k else np.zeros((n_nodes, 0))

    # Predecessor maps are only needed to walk the *winning* spider's legs;
    # recover them lazily with the deterministic dict Dijkstra.
    parent_cache: dict[Node, dict[Node, Node | None]] = {}

    def parent_map(src: Node) -> dict[Node, Node | None]:
        if src not in parent_cache:
            parent_cache[src] = node_weighted_dijkstra(graph, weights, src)[1]
        return parent_cache[src]

    best: tuple[float, float, str] | None = None  # (ratio, cost, center repr)
    best_payload: tuple[Node, tuple[int, ...], dict] | None = None

    use_prefix = k > max_dp_terminals  # classic fallback without the 2^k DP
    for center in node_list:
        wv = float(weights.get(center, 0.0))
        leg = [float(x) for x in T[node_index[center]]]
        if sum(1 for c in leg if c < _INF) < min_terminals:
            continue

        if use_prefix:
            # Classic Klein-Ravi prefix search (exact when all counts are 1):
            # the best j-terminal spider takes the j cheapest legs.
            order = sorted(range(k), key=lambda i: leg[i])
            prefix_cost = wv
            covered_bits = 0
            for rank, i in enumerate(order, start=1):
                if leg[i] == _INF:
                    break
                prefix_cost += leg[i]
                covered_bits |= 1 << i
                cnt = (covered_bits & countable_mask).bit_count()
                if rank < min_terminals or cnt == 0:
                    continue
                ratio = prefix_cost / cnt
                key = (ratio, prefix_cost, repr(center))
                if best is None or key < best:
                    best = key
                    covered = tuple(sorted(order[:rank]))
                    best_payload = (center, covered,
                                    {"prefix": True, "pair_junction": {}})
            continue

        pair_matrix: np.ndarray | None = None
        if mode == "branch":
            # Best two-terminal branch through any junction u:
            #   D[v, u] (w(u) counted once) + T[u, i] + T[u, j],
            # vectorised as k min-plus column reductions over the junction
            # axis.  Junction identities are recomputed lazily for the
            # winning spider only.
            P = D[node_index[center]][:, None] + T  # (n_nodes, k)
            pair_matrix = np.empty((k, k))
            for i in range(k):
                pair_matrix[i] = np.min(P[:, i : i + 1] + T, axis=0)

        # Subset DP: f[S] = min leg cost exactly covering terminal set S,
        # choice[S] records how the lowest bit of S is covered.
        size = 1 << k
        f = [_INF] * size
        choice: list[tuple | None] = [None] * size
        f[0] = 0.0
        for S in range(1, size):
            i = (S & -S).bit_length() - 1
            rest = S ^ (1 << i)
            c = f[rest] + leg[i]
            ch: tuple | None = ("single", i)
            if pair_matrix is not None:
                R = rest
                while R:
                    j = (R & -R).bit_length() - 1
                    R ^= 1 << j
                    pc = pair_matrix[i, j]
                    if pc < _INF:
                        cand = f[rest ^ (1 << j)] + pc
                        if cand < c:
                            c, ch = cand, ("pair", i, j)
            f[S] = c
            choice[S] = ch

        for S in range(1, size):
            nt = S.bit_count()
            cnt = (S & countable_mask).bit_count()
            if nt < min_terminals or cnt == 0 or f[S] == _INF:
                continue
            cost = wv + f[S]
            ratio = cost / cnt
            key = (ratio, cost, repr(center))
            if best is None or key < best:
                best = key
                covered = tuple(i for i in range(k) if S >> i & 1)
                best_payload = (center, covered, {"choice": choice, "S": S})

    if best_payload is None:
        return None

    center, covered, info = best_payload
    # Reconstruct the bought node set by walking the chosen legs.
    nodes: set[Node] = {center}
    if info.get("prefix"):
        for i in covered:
            nodes.update(reconstruct_path(parent_map(center), term_list[i]))
    else:
        S = info["S"]
        choice = info["choice"]
        # Pair legs exist only in branch mode, where D was materialised.
        c_row = D[node_index[center]] if D is not None else None
        while S:
            ch = choice[S]
            assert ch is not None
            if ch[0] == "single":
                i = ch[1]
                nodes.update(reconstruct_path(parent_map(center), term_list[i]))
                S ^= 1 << i
            else:
                _, i, j = ch
                # Lazy junction recovery: argmin over u of
                # D[center, u] + T[u, i] + T[u, j].
                u = node_list[int(np.argmin(c_row + T[:, i] + T[:, j]))]
                nodes.update(reconstruct_path(parent_map(center), u))
                nodes.update(reconstruct_path(parent_map(u), term_list[i]))
                nodes.update(reconstruct_path(parent_map(u), term_list[j]))
                S ^= (1 << i) | (1 << j)

    terminals_cov = frozenset(term_list[i] for i in covered)
    n_countable = sum(count_of[i] > 0 for i in covered)
    return Spider(center=center, terminals=terminals_cov, nodes=frozenset(nodes),
                  cost=best[1], n_countable=n_countable)


class NWSTState:
    """A contractible NWST working instance.

    Shrinking a spider removes its nodes from the working graph, inserts a
    fresh zero-weight *meta-terminal* adjacent to every outside neighbour of
    the removed set, and records (a) which original terminals the new
    terminal contains and (b) which original nodes have been bought.
    """

    def __init__(self, graph: Graph, weights: Mapping[Node, float],
                 terminals: Iterable[Node]) -> None:
        self.original_graph = graph
        self.original_weights = dict(weights)
        self.graph = graph.copy()
        self.weights: dict[Node, float] = dict(weights)
        self.terminals: set[Node] = set(terminals)
        missing = [t for t in self.terminals if t not in self.graph]
        if missing:
            raise ValueError(f"terminals not in graph: {missing!r}")
        self.members: dict[Node, frozenset] = {t: frozenset([t]) for t in self.terminals}
        self.bought: set[Node] = set(self.terminals)
        self._meta_counter = 0

    # -- queries -----------------------------------------------------------
    @property
    def n_terminals(self) -> int:
        return len(self.terminals)

    def member_terminals(self, terminal: Node) -> frozenset:
        """Original terminals contained in a (possibly meta) terminal."""
        return self.members[terminal]

    def bought_weight(self) -> float:
        """True total weight of the bought original nodes, added in the
        original graph's node order."""
        return sum(self.original_weights.get(x, 0.0)
                   for x in self.original_graph if x in self.bought)

    def solution_is_connected(self) -> bool:
        """Bought original nodes induce a connected subgraph (when one
        terminal remains, this certifies feasibility)."""
        from repro.graphs.traversal import is_connected

        return is_connected(self.original_graph.subgraph(self.bought))

    # -- operations ----------------------------------------------------------
    def min_ratio_spider(
        self,
        *,
        min_terminals: int = 3,
        mode: str = "branch",
        counts: Mapping[Node, int] | None = None,
        distance_mode: str = "auto",
    ) -> Spider | None:
        # The terminal order breaks exact ties in the spider search, so it
        # is the graph's node order, not the set's (which is per-process
        # for string-tagged nodes such as the MEMT reduction's).
        terminals = [t for t in self.graph if t in self.terminals]
        return find_min_ratio_spider(self.graph, self.weights, terminals,
                                     min_terminals=min_terminals, mode=mode,
                                     counts=counts, distance_mode=distance_mode)

    def contract_spider(self, spider: Spider) -> Node:
        """Shrink ``spider`` into a fresh meta-terminal; returns its id."""
        meta = ("meta", self._meta_counter)
        self._meta_counter += 1
        removed = set(spider.nodes)
        # The meta-terminal's neighbour order steers later Dijkstra ties:
        # wire it in graph order.
        wiring = [x for x in self.graph if x in removed]
        # Buy original nodes (meta path nodes were bought at their creation).
        for x in removed:
            if not self._is_meta(x):
                self.bought.add(x)
        # Absorb every terminal the spider touches: the covered ones, plus
        # any terminal a leg merely passes through (it gets connected for
        # free and must survive inside the new meta-terminal).
        absorbed = set(spider.terminals) | (removed & self.terminals)
        new_members: set[Node] = set()
        for t in absorbed:
            new_members.update(self.members.pop(t))
        self.graph.add_node(meta)
        self.weights[meta] = 0.0
        for x in wiring:
            for z, _ in list(self.graph.neighbors(x)):
                if z not in removed and z != meta:
                    self.graph.add_edge(meta, z, 1.0)
        for x in removed:
            if x in self.graph:
                self.graph.remove_node(x)
        self.terminals -= absorbed
        self.terminals.add(meta)
        self.members[meta] = frozenset(new_members)
        return meta

    def optimal_pair_connection(self, t1: Node, t2: Node) -> tuple[list[Node], float]:
        """Cheapest node-weighted path between two terminals (endpoint
        weights included — they are 0 for terminals/meta-terminals)."""
        dist, parent = node_weighted_dijkstra(self.graph, self.weights, t1, targets=[t2])
        if t2 not in dist:
            raise ValueError(f"terminals {t1!r} and {t2!r} are disconnected")
        path = reconstruct_path(parent, t2)
        return path, dist[t2] + self.weights.get(t1, 0.0)

    def connect_pair(self, t1: Node, t2: Node) -> tuple[Node, float]:
        """Buy the cheapest path between the two terminals and merge them.

        Returns the merged meta-terminal and the path cost.
        """
        path, cost = self.optimal_pair_connection(t1, t2)
        spider = Spider(center=t1, terminals=frozenset((t1, t2)),
                        nodes=frozenset(path), cost=cost)
        return self.contract_spider(spider), cost

    def _is_meta(self, node: Node) -> bool:
        return isinstance(node, tuple) and len(node) == 2 and node[0] == "meta"


@dataclass
class NWSTSolution:
    """Result of the greedy NWST algorithm."""

    cost: float  # true weight of the bought node set
    charged: float  # sum of spider costs + final connection (>= cost)
    nodes: frozenset
    spiders: list[Spider] = field(default_factory=list)


class GreedySpiderSolver:
    """The plain approximation algorithm ``AST`` (paper section 2.2.1).

    Repeatedly shrinks the minimum-ratio 3+ (branch-)spider until at most
    two terminals remain, then connects them optimally.  With
    ``mode='branch'`` this is the Guha-Khuller 1.5 ln k algorithm; with
    ``mode='classic'`` the Klein-Ravi 2 ln k variant.
    """

    def __init__(self, mode: str = "branch", min_terminals: int = 3,
                 distance_mode: str = "auto") -> None:
        self.mode = mode
        self.min_terminals = min_terminals
        self.distance_mode = distance_mode

    def solve(self, graph: Graph, weights: Mapping[Node, float],
              terminals: Sequence[Node]) -> NWSTSolution:
        state = NWSTState(graph, weights, terminals)
        spiders: list[Spider] = []
        charged = 0.0
        while state.n_terminals > 2:
            spider = state.min_ratio_spider(min_terminals=self.min_terminals, mode=self.mode,
                                            distance_mode=self.distance_mode)
            if spider is None:
                break
            spiders.append(spider)
            charged += spider.cost
            state.contract_spider(spider)
        if state.n_terminals == 2:
            t1, t2 = sorted(state.terminals, key=repr)
            _, cost = state.connect_pair(t1, t2)
            charged += cost
        return NWSTSolution(cost=state.bought_weight(), charged=charged,
                            nodes=frozenset(state.bought), spiders=spiders)


def exact_node_weighted_steiner(
    graph: Graph, weights: Mapping[Node, float], terminals: Sequence[Node]
) -> float:
    """Exact minimum node-weighted Steiner tree cost (node-weighted
    Dreyfus-Wagner).  Exponential in ``len(terminals)``; an oracle for tests
    and experiments.

    The cost counts the weights of *all* tree nodes, terminals included.
    """
    terminals = list(dict.fromkeys(terminals))
    k = len(terminals)
    if k == 0:
        return 0.0
    if k == 1:
        return float(weights.get(terminals[0], 0.0))

    nodes = graph.nodes()
    index = {v: i for i, v in enumerate(nodes)}
    # Node-weighted distance from every node (source weight excluded).
    nwdist: dict[Node, dict[Node, float]] = {
        v: node_weighted_dijkstra(graph, weights, v)[0] for v in nodes
    }

    t0 = terminals[-1]
    base = terminals[:-1]
    m = len(base)
    size = 1 << m
    # g[mask][v]: min weight of a tree spanning {base[i] : i in mask} + v,
    # excluding w(v).
    g = [[_INF] * len(nodes) for _ in range(size)]
    for i, t in enumerate(base):
        row = g[1 << i]
        for v in nodes:
            row[index[v]] = nwdist[v].get(t, _INF)

    for mask in range(1, size):
        if mask & (mask - 1) == 0:
            continue
        row = g[mask]
        low = mask & (-mask)
        sub = (mask - 1) & mask
        while sub:
            if sub & low:
                other = mask ^ sub
                rs, ro = g[sub], g[other]
                for vi in range(len(nodes)):
                    cand = rs[vi] + ro[vi]
                    if cand < row[vi]:
                        row[vi] = cand
            sub = (sub - 1) & mask
        snapshot = list(row)
        for ui, u in enumerate(nodes):
            su = snapshot[ui]
            if su == _INF:
                continue
            # g excludes w(u); walking v->u adds w(u) exactly once.
            for v, dvu in nwdist.items():
                duv = dvu.get(u, _INF)
                if duv == _INF:
                    continue
                vi = index[v]
                cand = su + duv
                if cand < row[vi]:
                    row[vi] = cand

    result = g[size - 1][index[t0]]
    if result == _INF:
        raise ValueError("terminals are not connected")
    return result + float(weights.get(t0, 0.0))
