"""Terminal-sourced metric closures.

The seed pipeline priced every Jain-Vazirani request against the *full*
``(n, n)`` all-pairs closure — ``O(n^3)`` work and ``O(n^2)`` memory even
when only ``k + 1`` stations (``{source} + receivers``) ever appear in a
moat process.  :class:`TerminalClosure` stores just the ``(k, n)`` distance
rows sourced at the terminals — ``O(k n^2)`` to build on the dense kernel,
``O(k (m + n log n))`` on CSR — and serves the same submatrices.  The same
Dijkstra pass also leaves each terminal's predecessor row, so the KMB
served tree (:func:`repro.graphs.steiner.kmb_steiner_tree`) rebuilds its
witness paths from the closure instead of re-running Dijkstra per request.
It is the one closure form the moat kernels, the JV shares and the MST
game read; :meth:`TerminalClosure.all_stations` sources it at every
station (a session without a receiver subset uses that one).

Bit-identity: every closure row in this codebase is a Dijkstra distance
field, and the lockstep rows of
:func:`repro.engine.dense.batched_dijkstra` are arithmetically independent
(each row relaxes only its own sums, and picks its own predecessors).
Sourcing the batch at a subset of nodes therefore reproduces the full
closure's rows *exactly*, so any moat schedule — and any share — computed
through a :class:`TerminalClosure` is bit-identical to the full-closure
result (property-tested in ``tests/test_terminal_closure.py``), and every
witness path equals the one a Dijkstra batch over just the request's
terminals would give.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


class TerminalClosure:
    """Shortest-path distances and predecessors sourced only at ``terminals``.

    Behaves like the terminal rows of the full all-pairs closure matrix:
    ``submatrix(pts)`` returns the ``(len(pts), len(pts))`` closure block
    for any ``pts`` drawn from the terminal set (raising ``ValueError``
    on foreign stations, where a full matrix would silently answer), and
    ``path(u, v)`` walks terminal ``u``'s predecessor row back from ``v``.
    """

    __slots__ = ("n", "terminals", "rows", "parents", "_col")

    def __init__(self, n: int, terminals: Sequence[int], rows: np.ndarray,
                 parents: np.ndarray) -> None:
        self.n = int(n)
        self.terminals = tuple(int(t) for t in terminals)
        rows = np.asarray(rows, dtype=float)
        parents = np.asarray(parents, dtype=np.int64)
        if rows.shape != (len(self.terminals), self.n) or parents.shape != rows.shape:
            raise ValueError(
                f"rows shape {rows.shape} / parents shape {parents.shape} do "
                f"not match {len(self.terminals)} terminals over n={self.n}")
        if len(set(self.terminals)) != len(self.terminals):
            raise ValueError("terminals must be distinct")
        self.rows = rows
        self.parents = parents
        self._col = {t: i for i, t in enumerate(self.terminals)}

    @classmethod
    def from_network(cls, network, terminals: Sequence[int]) -> "TerminalClosure":
        """Build from a :class:`~repro.wireless.CostGraph` (dense kernel:
        one lockstep batched Dijkstra over the terminal rows)."""
        terminals = [int(t) for t in terminals]
        return cls(network.n, terminals,
                   *network.as_dense().metric_closure_arrays(terminals))

    @classmethod
    def all_stations(cls, network) -> "TerminalClosure":
        """The full closure of ``network``, sourced at every station: its
        rows are the all-pairs matrix's, bit for bit, and its predecessor
        rows give every served tree its witness paths."""
        return cls.from_network(network, range(network.n))

    @classmethod
    def from_graph(cls, graph, terminals: Sequence[int]) -> "TerminalClosure":
        """Build from any array backend (``DenseGraph`` uses the lockstep
        batch; ``CSRGraph`` one heap Dijkstra per terminal)."""
        terminals = [int(t) for t in terminals]
        return cls(graph.n, terminals, *graph.metric_closure_arrays(terminals))

    def covers(self, pts: Sequence[int]) -> bool:
        return all(int(p) in self._col for p in pts)

    def distance(self, u: int, v: int) -> float:
        """``d(u, v)`` for terminal ``u`` (``v`` may be any station)."""
        return float(self.rows[self._require(u), int(v)])

    def submatrix(self, pts: Sequence[int]) -> np.ndarray:
        """The closure block among ``pts`` — bit-identical to
        ``full_closure[np.ix_(pts, pts)]``."""
        rows = [self._require(p) for p in pts]
        cols = [int(p) for p in pts]
        return self.rows[np.ix_(rows, cols)]

    def path(self, u: int, v: int) -> list[int]:
        """The shortest ``u -> v`` path of terminal ``u``'s Dijkstra tree
        (``v`` may be any station); ``ValueError`` when ``v`` is
        unreachable from ``u``."""
        row = self._require(u)
        u, v = int(u), int(v)
        if not np.isfinite(self.rows[row, v]):
            raise ValueError(f"terminals {u!r} and {v!r} are disconnected")
        parents = self.parents[row]
        path = [v]
        while path[-1] != u:
            path.append(int(parents[path[-1]]))
        path.reverse()
        return path

    def _require(self, p: int) -> int:
        try:
            return self._col[int(p)]
        except KeyError:
            raise ValueError(
                f"station {p} is not a closure terminal; this closure was "
                f"sourced at {len(self.terminals)} terminals — rebuild it "
                "with the station included (or use the full closure)"
            ) from None

    def __repr__(self) -> str:
        return f"TerminalClosure(n={self.n}, terminals={len(self.terminals)})"
