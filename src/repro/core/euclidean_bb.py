"""The 2(3^d - 1)-BB Euclidean mechanism (Theorems 3.6 and 3.7).

``EuclideanJVMechanism`` = Moulin-Shenker driver over the Jain-Vazirani
cross-monotonic shares (:mod:`repro.core.jv_steiner`) + the Steiner
heuristic to build the actual power assignment:

* the shares sum to the metric-closure MST weight over ``R + {s}``
  (<= 2 * minimum Steiner tree <= 2(3^d - 1) * C*(R) by Lemma 3.5; <= 12 *
  C*(R) for d = 2 by Ambuehl's bound), giving beta-approximate
  budget balance;
* the built assignment comes from the KMB Steiner tree oriented away from
  the source, whose cost never exceeds the closure MST weight — so the
  charges always cover the built solution (cost recovery).  The shares,
  their total and the tree's step 1 all take that MST from one kernel
  (:func:`repro.engine.moats.closure_mst`), and the tree expands its
  edges along the predecessor rows of the mechanism's closure;
* cross-monotonicity makes the whole mechanism group strategyproof and
  NPT/VP/CS (Moulin-Shenker, extended to beta-BB by Jain-Vazirani).

The mechanism works on any symmetric cost graph; the *guarantee* ``beta =
2(3^d - 1)`` is the Euclidean one (``alpha >= d``).
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.api.registry import register_mechanism
from repro.core.jv_steiner import JVSteinerShares
from repro.graphs.steiner import kmb_steiner_tree
from repro.mechanism.base import Agent, CostSharingMechanism, MechanismResult, Profile
from repro.mechanism.moulin_shenker import moulin_shenker
from repro.wireless.cost_graph import CostGraph
from repro.wireless.multicast import steiner_heuristic_power


def jv_bb_bound(d: int) -> float:
    """The proven budget-balance factor: ``2(3^d - 1)``, improved to 12 for
    d = 2 (Thm 3.7 via Ambuehl's MST bound)."""
    if d == 2:
        return 12.0
    return 2.0 * (3.0**d - 1.0)


class EuclideanJVMechanism(CostSharingMechanism):
    """Group-strategyproof beta-BB mechanism for Euclidean wireless multicast.

    ``closure`` is an optional precomputed
    :class:`~repro.engine.closure.TerminalClosure` of ``network`` covering
    the source and every agent (a session's); by default one is sourced at
    every station.  The shares read its distance rows and the served tree
    its predecessor rows.
    """

    def __init__(
        self,
        network: CostGraph,
        source: int,
        agent_weights: Mapping[Agent, float] | None = None,
        *,
        closure=None,
        agents=None,
    ) -> None:
        self.network = network
        self.source = source
        self.jv = JVSteinerShares(network, source, agent_weights, closure=closure)
        if agents is None:
            self.agents = [i for i in range(network.n) if i != source]
        else:
            self.agents = sorted(set(agents) - {source})

    def _build(self, R: frozenset):
        R = set(R) - {self.source}
        if not R:
            from repro.wireless.power import PowerAssignment

            return 0.0, PowerAssignment.zeros(self.network.n)
        tree = kmb_steiner_tree(self.network.as_dense(), [self.source, *sorted(R)],
                                closure=self.jv.closure)
        power = steiner_heuristic_power(
            self.network, [(u, v) for u, v, _ in tree.edges], self.source
        )
        return power.cost(), power

    def run(self, profile: Profile, *, method=None) -> MechanismResult:
        """Run the mechanism; ``method`` optionally substitutes a memoised
        wrapper of ``self.jv.shares`` (see
        :class:`repro.engine.batch.MethodCache`)."""
        u = self.validate_profile(profile)
        xi = self.jv.shares if method is None else method
        result = moulin_shenker(self.agents, xi, u, build=self._build)
        result.extra["closure_mst_weight"] = self.jv.closure_mst_weight(result.receivers)
        return result


# -- registry wiring (repro.api) --------------------------------------------

def _build_jv(session, *, agent_weights: Mapping | None = None) -> EuclideanJVMechanism:
    if agent_weights is not None:  # wire params arrive with string keys
        agent_weights = {int(a): float(w) for a, w in agent_weights.items()}
    receivers = session.scenario.receivers
    return EuclideanJVMechanism(
        session.network, session.source, agent_weights,
        # With an explicit receiver subset the terminal-sourced closure
        # prices every reachable coalition bit-identically at O(k n^2)
        # build cost; without one it is sourced at every station.
        closure=session.terminal_closure(),
        agents=None if receivers is None else session.agents(),
    )


register_mechanism(
    "jv",
    _build_jv,
    method_of=lambda mech: mech.jv.shares,
    summary="§3.2 Jain-Vazirani cross-monotonic mechanism (2(3^d - 1)-BB, GSP)",
)
