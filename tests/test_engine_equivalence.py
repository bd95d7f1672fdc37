"""Property-based dense-vs-dict backend equivalence (ISSUE 1 acceptance).

On random Euclidean and random symmetric instances the dense backend must
reproduce the dict backend *exactly*: same Dijkstra distances, same MST
tree costs, same metric closures — and, one level up, bit-identical
mechanism outputs (cost shares, service sets) since the mechanisms consume
only those quantities.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.instances import random_utilities
from repro.core import UniversalTreeMCMechanism, UniversalTreeShapleyMechanism
from repro.core.jv_steiner import JVSteinerShares
from repro.engine.backend import as_array_backend
from repro.geometry import uniform_points
from repro.graphs.mst import kruskal_complete, mst_weight, prim_mst
from repro.graphs.random_graphs import random_connected_graph, random_cost_matrix
from repro.graphs.shortest_paths import dijkstra
from repro.graphs.steiner import metric_closure
from repro.wireless import CostGraph, EuclideanCostGraph, UniversalTree

seeds = st.integers(min_value=0, max_value=10_000)
sizes = st.integers(min_value=2, max_value=12)

MAX_EXAMPLES = 25


def euclidean_network(seed: int, n: int) -> EuclideanCostGraph:
    return EuclideanCostGraph(uniform_points(n, 2, rng=seed, side=5.0), alpha=2.0)


def symmetric_network(seed: int, n: int) -> CostGraph:
    return CostGraph(random_cost_matrix(n, rng=seed))


@st.composite
def networks(draw):
    seed = draw(seeds)
    n = draw(sizes)
    if draw(st.booleans()):
        return euclidean_network(seed, n)
    return symmetric_network(seed, n)


class TestKernelEquivalence:
    @given(networks())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_dijkstra_distances_identical(self, network):
        dist_dict, _ = dijkstra(network.as_graph(), 0)
        dist_dense, _ = dijkstra(network.as_dense(), 0)
        assert dist_dense == dist_dict  # exact float equality, same keys

    @given(networks())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_prim_tree_cost_identical(self, network):
        tree_dict = prim_mst(network.as_graph(), root=0)
        tree_dense = prim_mst(network.as_dense(), root=0)
        assert len(tree_dense) == len(tree_dict) == network.n - 1
        assert mst_weight(tree_dense) == mst_weight(tree_dict)

    @given(networks())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_metric_closure_distances_identical(self, network):
        terminals = list(range(0, network.n, 2))
        c_dict = metric_closure(network.as_graph(), terminals)
        c_dense = metric_closure(network.as_dense(), terminals)
        assert c_dense.distance == c_dict.distance
        for a, b in itertools.permutations(terminals, 2):
            path = c_dense.path(a, b)
            assert path[0] == a and path[-1] == b
            total = sum(network.cost(u, v) for u, v in zip(path, path[1:]))
            assert total == pytest.approx(c_dense.dist(a, b))

    @given(seeds, st.integers(min_value=3, max_value=14))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_sparse_csr_matches_dict(self, seed, n):
        g = random_connected_graph(n, rng=seed)
        csr = as_array_backend(g, prefer="csr")
        dist_dict, _ = dijkstra(g, 0)
        dist_csr, _ = dijkstra(csr, 0)
        assert dist_csr == dist_dict
        assert mst_weight(prim_mst(csr, root=0)) == mst_weight(prim_mst(g, root=0))


class TestMechanismEquivalence:
    """Bit-identical mechanism outputs across backends (random instances —
    no exact distance ties — so the universal trees coincide too)."""

    @given(seeds, st.integers(min_value=3, max_value=10), st.booleans())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_universal_tree_mechanisms_identical(self, seed, n, euclidean):
        network = euclidean_network(seed, n) if euclidean else symmetric_network(seed, n)
        tree_dense = UniversalTree.from_shortest_paths(network, 0)
        tree_dict = UniversalTree(network, 0, dijkstra(network.as_graph(), 0)[1])
        assert tree_dense.parents == tree_dict.parents

        profile = random_utilities(network, 0, np.random.default_rng(seed))
        res_dense = UniversalTreeShapleyMechanism(tree_dense).run(profile)
        res_dict = UniversalTreeShapleyMechanism(tree_dict).run(profile)
        assert res_dense.receivers == res_dict.receivers
        assert res_dense.shares == res_dict.shares  # bit-identical
        assert res_dense.cost == res_dict.cost

        mc_dense = UniversalTreeMCMechanism(tree_dense).run(profile)
        mc_dict = UniversalTreeMCMechanism(tree_dict).run(profile)
        assert mc_dense.receivers == mc_dict.receivers
        assert mc_dense.shares == mc_dict.shares

    @given(seeds, st.integers(min_value=3, max_value=10))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_mst_universal_tree_identical(self, seed, n):
        network = euclidean_network(seed, n)
        t_dense = UniversalTree.from_mst(network, 0)
        t_dict = UniversalTree(network, 0, {0: None, **{
            c: p for p, c, _ in prim_mst(network.as_graph(), root=0)}})
        assert t_dense.parents == t_dict.parents

    @given(seeds, st.integers(min_value=3, max_value=9))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_jv_moat_matches_kruskal_trace_reference(self, seed, n):
        """The index-array moat kernel reproduces the dict Kruskal-trace
        formulation of the JV shares share-for-share."""
        network = euclidean_network(seed, n)
        jv = JVSteinerShares(network, 0)
        agents = list(range(1, n))
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, len(agents) + 1)) if agents else 0
        R = frozenset(int(x) for x in rng.choice(agents, size=size, replace=False))

        got = jv.shares(R)
        expected = _reference_moat_shares(jv, R)
        assert got == expected  # identical merge schedule => identical floats
        assert sum(got.values()) == pytest.approx(jv.closure_mst_weight(R))

    @given(seeds, st.integers(min_value=3, max_value=9))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_jv_weighted_moat_matches_reference(self, seed, n):
        """The weighted family (per-user mappings f_i) also reproduces the
        Kruskal-trace formulation, with component weight totals accumulated
        in the kernel's documented sorted-station order."""
        network = euclidean_network(seed, n)
        rng = np.random.default_rng(seed)
        agent_weights = {i: float(rng.uniform(0.5, 3.0)) for i in range(1, n)}
        jv = JVSteinerShares(network, 0, agent_weights)
        R = frozenset(range(1, n))

        got = jv.shares(R)
        expected = _reference_moat_shares(jv, R)
        assert got == expected
        assert sum(got.values()) == pytest.approx(jv.closure_mst_weight(R))


class TestChurnEquivalence:
    """ISSUE 4 differential oracles: incremental epoch replay vs cold
    per-epoch recomputation, and dict vs dense backends under churn."""

    @st.composite
    def dynamic_specs(draw):
        from repro.dynamic import ChurnSpec, DynamicScenarioSpec

        return DynamicScenarioSpec(
            kind="random",
            n=draw(st.integers(min_value=3, max_value=9)),
            alpha=2.0,
            seed=draw(seeds),
            side=5.0,
            churn=ChurnSpec(
                epochs=draw(st.integers(min_value=1, max_value=4)),
                seed=draw(seeds),
                join_rate=draw(st.floats(min_value=0.0, max_value=0.6)),
                leave_rate=draw(st.floats(min_value=0.0, max_value=0.6)),
                move_rate=draw(st.floats(min_value=0.0, max_value=0.5)),
            ),
        )

    @given(dynamic_specs(), st.sampled_from(["tree-shapley", "tree-mc", "jv"]))
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_incremental_replay_matches_cold_session(self, spec, mechanism):
        from repro.api import MulticastSession, result_to_dict
        from repro.dynamic import DynamicSession
        from repro.runner import ProfileSpec

        dyn = DynamicSession(spec)
        profile_spec = ProfileSpec(count=2)
        for epoch in range(spec.n_epochs):
            profiles = dyn.epoch_profiles(epoch, profile_spec)
            incremental = dyn.run_epoch(epoch, mechanism, profiles)
            cold = MulticastSession(spec.materialize(epoch)).run_batch(
                mechanism, profiles)
            assert ([result_to_dict(r) for r in incremental]
                    == [result_to_dict(r) for r in cold])

    @given(dynamic_specs())
    @settings(max_examples=MAX_EXAMPLES, deadline=None)
    def test_dict_and_dense_backends_agree_under_churn(self, spec):
        from repro.dynamic import DynamicSession
        from repro.runner import ProfileSpec

        dyn = DynamicSession(spec)
        for epoch in range(spec.n_epochs):
            network = spec.materialize(epoch).build_network()
            t_dense = UniversalTree.from_shortest_paths(network, 0)
            t_dict = UniversalTree(network, 0, dijkstra(network.as_graph(), 0)[1])
            assert t_dense.parents == t_dict.parents
            for profile in dyn.epoch_profiles(epoch, ProfileSpec(count=2)):
                res_dense = UniversalTreeShapleyMechanism(t_dense).run(profile)
                res_dict = UniversalTreeShapleyMechanism(t_dict).run(profile)
                assert res_dense.receivers == res_dict.receivers
                assert res_dense.shares == res_dict.shares  # bit-identical
                assert res_dense.cost == res_dict.cost


def _reference_moat_shares(jv: JVSteinerShares, R: frozenset) -> dict:
    """The seed's dict-graph Kruskal-trace moat (kept here as the oracle).

    Weight totals are summed over sorted members — the deterministic order
    the kernel documents (the retired implementation summed in frozenset
    hash order, which is not reproducible as an oracle).
    """
    members = sorted(set(R) - {jv.source})
    if not members:
        return {}
    pts = [jv.source, *members]
    _, events = kruskal_complete(pts, jv.closure.distance, trace=True)
    shares = {i: 0.0 for i in members}
    birth = {frozenset([p]): 0.0 for p in pts}
    for ev in events:
        for side in (ev.component_u, ev.component_v):
            if jv.source in side:
                continue
            t0 = birth.pop(side)
            span = ev.weight - t0
            if span <= 0:
                continue
            if jv.agent_weights is None:
                for i in side:
                    shares[i] += span * 1.0 / len(side)
            else:
                total_w = sum(jv._weight(i) for i in sorted(side))
                for i in side:
                    shares[i] += span * jv._weight(i) / total_w
        birth[ev.component_u | ev.component_v] = ev.weight
    return shares
