"""Jain-Vazirani cross-monotonic Steiner cost shares (paper §3.2, their [29]).

Jain & Vazirani build 2-budget-balanced cross-monotonic cost shares for the
Steiner tree game from the MST heuristic and Edmonds' branching LP,
parameterized by per-user mappings ``f_i``.  We implement the equivalent
*Kruskal moat* formulation on the metric closure:

run Kruskal over ``R + {s}`` with the shortest-path metric, reading edge
weight as time.  At time ``t`` every component not containing the source is
*active* and accrues cost at unit rate, split among its members (equally by
default; proportionally to positive agent weights for the parameterized
family).  Agent ``i`` stops paying when its component absorbs the source.

Facts (all property-tested):

* ``sum of shares(R) = MST weight of the metric closure over R + {s}``
  exactly — because the number of active components at time ``t`` is
  ``(#components - 1)`` and ``integral of that = MST weight``;
* cross-monotonicity — adding a terminal only merges components earlier and
  only enlarges the component an agent sits in, so its pay rate and pay
  horizon both shrink;
* 2-budget-balance — the closure MST is the Kou-Markowsky-Berman bound:
  at most twice the optimal Steiner tree, which by Lemma 3.5 is at most
  ``(3^d - 1) C*(R)`` for Euclidean wireless multicast, giving Thm 3.6.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.engine.closure import TerminalClosure
from repro.engine.moats import moat_mst_weight, moat_shares
from repro.mechanism.base import Agent
from repro.wireless.cost_graph import CostGraph


class JVSteinerShares:
    """The cost-sharing method family ``xi(R, i)``.

    Parameters
    ----------
    network, source:
        The wireless instance; shares are computed in its metric closure.
    agent_weights:
        Optional strictly positive weights (the paper's per-user mappings
        ``f_i``): a component's growth is split proportionally to the
        weights of its members.  Default: equal split.
    closure:
        Optional precomputed :class:`~repro.engine.closure.TerminalClosure`
        of ``network`` sourced at ``{source} + receivers`` (O(k n^2)
        instead of O(n^3) to build; shares are bit-identical as long as
        every requested agent is a closure terminal) or at every station
        (the default, :meth:`~repro.engine.closure.TerminalClosure.all_stations`).
        Lets a long-lived session amortize the shortest-path work across
        share families and, through the closure's predecessor rows, the
        served trees of :class:`~repro.core.euclidean_bb.EuclideanJVMechanism`.
        Any other type raises ``TypeError``.
    """

    def __init__(
        self,
        network: CostGraph,
        source: int,
        agent_weights: Mapping[Agent, float] | None = None,
        *,
        closure: TerminalClosure | None = None,
    ) -> None:
        self.network = network
        self.source = source
        if closure is None:
            closure = TerminalClosure.all_stations(network)
        elif not isinstance(closure, TerminalClosure):
            raise TypeError(
                f"closure must be a TerminalClosure, got {type(closure).__name__}")
        elif closure.n != network.n:
            raise ValueError(
                f"closure covers n={closure.n} stations, network has {network.n}"
            )
        elif not closure.covers([source]):
            raise ValueError("terminal-sourced closure must include the source")
        self.closure = closure
        self.agent_weights = dict(agent_weights) if agent_weights else None
        if self.agent_weights is not None:
            bad = {a: w for a, w in self.agent_weights.items() if w <= 0}
            if bad:
                raise ValueError(f"agent weights must be positive: {bad}")

    def _weight(self, i: Agent) -> float:
        if self.agent_weights is None:
            return 1.0
        return float(self.agent_weights.get(i, 1.0))

    def shares(self, R: frozenset) -> dict[Agent, float]:
        """``xi(R, .)`` via the moat process.

        Runs on the index-array kernels of :mod:`repro.engine.moats`: the
        closure MST in ``O(k^2)`` (:func:`~repro.engine.moats.closure_mst`,
        Kruskal's edges and tie-breaks), then the moat loop over its
        ``k - 1`` edges — same merge schedule and shares as the dict-graph
        Kruskal trace, without materialising a graph, sorting every
        closure edge or snapshotting components per call.
        """
        R = sorted(set(R) - {self.source})
        if not R:
            return {}
        weight_of = None if self.agent_weights is None else self._weight
        return moat_shares(self.closure, self.source, R, weight_of)

    def method(self):
        """Adapter for :func:`repro.mechanism.moulin_shenker.moulin_shenker`."""
        return self.shares

    def closure_mst_weight(self, R: frozenset) -> float:
        """MST weight of the metric closure over ``R + {s}`` (== sum of
        shares; the 2-approximation of the optimal Steiner tree)."""
        R = sorted(set(R) - {self.source})
        if not R:
            return 0.0
        return moat_mst_weight(self.closure, self.source, R)
