"""The 1.5 ln k-BB strategyproof NWST mechanism (paper section 2.2.2).

The mechanism simulates the greedy spider algorithm and makes the covered
terminals pay each spider's cost:

* pick the minimum-ratio 3+ (branch-)spider ``Sp`` (``ratio = cost /
  #countable covered terminals``);
* every covered terminal is charged ``ratio``, recursively split equally
  among the terminals previously shrunk into it (an original terminal in
  ``N_Sp`` therefore pays the full ratio — the paper's Eq. shares);
* a *meta-terminal* born from the shrink carries the aggregated utility of
  Eq. (5): ``v_t = |T_Sp| * min over covered terminals of (v - charge)`` —
  equivalently, ``v_t = min over members of surplus_i / weight_i`` where
  ``weight_i`` is the fraction of a charge to ``t`` that reaches agent ``i``
  through the recursive split;
* if the spider's ratio exceeds some covered terminal's budget, the members
  that cannot afford their slice (``surplus_i < ratio * weight_i``) are
  dropped and the whole computation restarts from scratch;
* when two terminals remain they are connected by the cheapest node-weighted
  path, shared the same way.

Implementation notes (documented in DESIGN.md):

* We charge by *member weights* (``c_i += ratio * weight_i``), i.e. a charge
  to a meta-terminal splits equally among its constituent terminals,
  recursively.  This is the unique reading under which the paper's Eq. (5)
  budget is exactly the affordability threshold (so VP holds); the flat
  ``ratio / |N+_t|`` split printed in the paper contradicts Eq. (5) on
  unbalanced merge trees.
* The drop threshold is ``ratio * weight_i`` (not the printed
  ``v_t / |N+_t|``), which is what the paper's own Fig. 1 walk-through uses
  (agent 7, surplus 1/2 - eps < 1/2, is dropped) and what guarantees the
  restart removes at least one agent.

The mechanism is strategyproof (Thm 2.3) but not group strategyproof
(Fig. 1); it returns a Steiner tree whose cost matches the plain algorithm
run on the surviving terminal set (Thm 2.2), hence 1.5 ln k-BB.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

from repro.graphs.adjacency import Graph
from repro.graphs.nwst import NWSTState, Spider
from repro.mechanism.base import Agent, CostSharingMechanism, MechanismResult, Profile

_EPS = 1e-9


@dataclass
class _Attempt:
    """One from-scratch run; either completes or names agents to drop."""

    dropped: set = field(default_factory=set)
    shares: dict = field(default_factory=dict)
    charged: float = 0.0
    state: NWSTState | None = None
    spiders: list = field(default_factory=list)


class NWSTMechanism(CostSharingMechanism):
    """Cost-sharing mechanism for non-cooperative NWST.

    Parameters
    ----------
    graph, weights:
        The node-weighted instance (terminals conventionally weight 0).
    terminals:
        The selfish agents (potential receivers).
    protected:
        Terminals that must be connected but never pay and are never
        dropped (the source terminal in the section 2.2.3 wireless usage).
    mode:
        ``'branch'`` (Guha-Khuller, 1.5 ln k) or ``'classic'`` (Klein-Ravi,
        2 ln k) spiders — the EXP-A2 ablation.
    """

    def __init__(
        self,
        graph: Graph,
        weights: Mapping,
        terminals: Sequence[Agent],
        *,
        protected: Iterable = (),
        mode: str = "branch",
        min_terminals: int = 3,
        distance_mode: str = "auto",
    ) -> None:
        self.graph = graph
        self.weights = dict(weights)
        self.agents = list(dict.fromkeys(terminals))
        self.protected = list(dict.fromkeys(protected))
        overlap = set(self.agents) & set(self.protected)
        if overlap:
            raise ValueError(f"terminals cannot be both charged and protected: {overlap}")
        self.mode = mode
        self.min_terminals = min_terminals
        self.distance_mode = distance_mode

    # -- public entry --------------------------------------------------------
    def run(self, profile: Profile) -> MechanismResult:
        u = self.validate_profile(profile)
        active = set(self.agents)
        attempt = _Attempt()
        n_restarts = 0
        for _ in range(len(self.agents) + 1):
            attempt = self._attempt(active, u)
            if not attempt.dropped:
                break
            active -= attempt.dropped
            n_restarts += 1
        else:  # pragma: no cover - each restart removes at least one agent
            raise RuntimeError("NWST mechanism failed to converge")

        if attempt.state is not None and len(active) > 0:
            if not attempt.state.solution_is_connected():  # pragma: no cover
                raise RuntimeError("mechanism produced a disconnected solution")
            cost = attempt.state.bought_weight()
            bought = frozenset(attempt.state.bought)
        else:
            cost = 0.0
            bought = frozenset()
        return MechanismResult(
            receivers=frozenset(active),
            shares={i: attempt.shares.get(i, 0.0) for i in self.agents if i in active},
            cost=cost,
            extra={
                "bought_nodes": bought,
                "charged": attempt.charged,
                "n_restarts": n_restarts,
                "spiders": tuple(attempt.spiders),
            },
        )

    # -- one from-scratch computation -----------------------------------------
    def _attempt(self, active: set, u: dict[Agent, float]) -> _Attempt:
        att = _Attempt()
        if not active:
            return att
        terminals = list(active) + self.protected
        if len(terminals) == 1:
            # A single terminal is trivially spanned by itself.
            att.shares = {i: 0.0 for i in active}
            att.state = NWSTState(self.graph, self.weights, terminals)
            return att

        state = NWSTState(self.graph, self.weights, terminals)
        shares = {i: 0.0 for i in active}
        weight = {i: 1.0 for i in active}

        def active_members(t) -> list:
            return [i for i in state.member_terminals(t) if i in active]

        def counts() -> dict:
            return {t: (1 if active_members(t) else 0) for t in state.terminals}

        def deficient(covered: Iterable, ratio: float) -> set:
            X: set = set()
            for t in covered:
                members = active_members(t)
                if not members:
                    continue
                # ratio > v_t  <=>  some member cannot afford its slice.
                losers = [i for i in members
                          if u[i] - shares[i] < ratio * weight[i] - _EPS]
                if losers:
                    X.update(losers)
            return X

        def charge(covered: Iterable, ratio: float) -> None:
            for t in covered:
                for i in active_members(t):
                    shares[i] += ratio * weight[i]

        def absorb(spider: Spider) -> None:
            # Record the terminals the contraction will merge, then split
            # future charges among the countable ones.
            absorbed = set(spider.terminals) | (set(spider.nodes) & state.terminals)
            k_cnt = sum(1 for t in absorbed if active_members(t))
            meta = state.contract_spider(spider)
            if k_cnt > 0:
                for i in active_members(meta):
                    weight[i] /= k_cnt

        while state.n_terminals > 2:
            spider = state.min_ratio_spider(
                min_terminals=self.min_terminals, mode=self.mode, counts=counts(),
                distance_mode=self.distance_mode
            )
            if spider is None:  # pragma: no cover - connected instances always have one
                break
            ratio = spider.ratio
            X = deficient(spider.terminals, ratio)
            if X:
                att.dropped = X
                return att
            charge(spider.terminals, ratio)
            att.charged += ratio * spider.n_countable
            att.spiders.append(spider)
            absorb(spider)

        if state.n_terminals == 2:
            t1, t2 = sorted(state.terminals, key=repr)
            path, cost = state.optimal_pair_connection(t1, t2)
            cnt = sum(1 for t in (t1, t2) if active_members(t))
            if cnt > 0 and cost > _EPS:
                ratio = cost / cnt
                X = deficient([t1, t2], ratio)
                if X:
                    att.dropped = X
                    return att
                charge([t1, t2], ratio)
                att.charged += cost
            final = Spider(center=t1, terminals=frozenset((t1, t2)),
                           nodes=frozenset(path), cost=cost, n_countable=max(cnt, 1))
            att.spiders.append(final)
            absorb(final)

        att.shares = shares
        att.state = state
        return att
