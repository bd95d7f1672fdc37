"""Tests for repro.api.session — the caching MulticastSession facade."""

import numpy as np
import pytest

from repro.api import MechanismSpec, MulticastSession, ScenarioSpec
from repro.core import EuclideanJVMechanism, UniversalTreeShapleyMechanism
from repro.geometry import uniform_points
from repro.wireless import EuclideanCostGraph, UniversalTree


def small_spec(seed=2, n=7, alpha=2.0):
    return ScenarioSpec.from_random(n=n, dim=2, alpha=alpha, seed=seed, side=5.0)


def profiles_for(spec, n_profiles=6, seed=0, scale=3.0):
    network = spec.build_network()
    rng = np.random.default_rng(seed)
    typical = float(np.median(network.matrix[network.matrix > 0]))
    return [
        {i: float(rng.uniform(0, scale * typical)) for i in spec.agents()}
        for _ in range(n_profiles)
    ]


class TestConstruction:
    def test_from_spec_is_lazy(self):
        session = MulticastSession(small_spec())
        assert not session.cache_info()["network_built"]
        session.network
        assert session.cache_info()["network_built"]

    def test_from_cost_graph(self):
        network = EuclideanCostGraph(uniform_points(5, 2, rng=1), 2.0)
        session = MulticastSession(network, source=2)
        assert session.network is network  # no rebuild
        assert session.source == 2 and session.scenario.kind == "points"

    def test_from_mapping(self):
        session = MulticastSession({"kind": "random", "n": 4, "seed": 0, "alpha": 2.0})
        assert session.scenario.n_stations == 4

    def test_conflicting_source_rejected(self):
        with pytest.raises(ValueError, match="source"):
            MulticastSession(small_spec(), source=3)

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            MulticastSession(42)


class TestSharedState:
    def test_network_and_trees_built_once(self):
        session = MulticastSession(small_spec())
        assert session.network is session.network
        assert session.universal_tree() is session.universal_tree("spt")
        assert session.universal_tree("mst") is session.universal_tree("mst")
        assert session.cache_info()["trees"] == ["mst", "spt"]

    def test_tree_shared_across_mechanisms(self):
        session = MulticastSession(small_spec())
        shap = session.mechanism("tree-shapley")
        mc = session.mechanism("tree-mc")
        assert shap.tree is mc.tree

    def test_closure_shared_across_jv_parameterizations(self):
        session = MulticastSession(small_spec())
        plain = session.mechanism("jv")
        weighted = session.mechanism("jv", agent_weights={"1": 2.0})
        assert plain is not weighted
        assert plain.jv.closure is weighted.jv.closure
        assert plain.jv.closure is session.metric_closure()

    def test_mechanism_instances_cached_by_params(self):
        session = MulticastSession(small_spec())
        assert session.mechanism("jv") is session.mechanism("jv")
        assert session.mechanism("wireless", mode="branch") is not \
            session.mechanism("wireless", mode="classic")

    def test_equivalent_parameterizations_share_one_cache(self):
        # Omitted param, explicit default, and explicit spec-tree value
        # must all canonicalize to one instance + one xi cache.
        session = MulticastSession(small_spec())  # spec tree is "spt"
        a = session.mechanism("tree-shapley")
        b = session.mechanism("tree-shapley", tree=None)
        c = session.mechanism("tree-shapley", tree="spt")
        assert a is b is c
        d = session.mechanism("wireless")
        e = session.mechanism("wireless", mode="branch")
        assert d is e
        assert session.method_cache("tree-shapley") is \
            session.method_cache("tree-shapley", tree="spt")

    def test_cache_info_separates_parameterizations(self):
        spec = small_spec()
        session = MulticastSession(spec)
        profile = profiles_for(spec, n_profiles=1)[0]
        session.run("tree-shapley", profile)
        assert "tree-shapley" in session.cache_info()["methods"]
        session.run("tree-shapley", profile, tree="mst")
        labels = sorted(session.cache_info()["methods"])
        assert len(labels) == 2 and all(l.startswith("tree-shapley") for l in labels)
        assert any("mst" in l for l in labels) and any("spt" in l for l in labels)

    def test_unknown_tree_kind(self):
        with pytest.raises(ValueError, match="tree kind"):
            MulticastSession(small_spec()).universal_tree("bfs")
        profiles = profiles_for(small_spec(), n_profiles=2)
        with pytest.raises(ValueError, match="tree kind"):
            MulticastSession(small_spec()).run_batch(
                "tree-shapley", profiles, tree="bogus")


class TestRun:
    def test_run_matches_direct_construction(self):
        spec = small_spec()
        session = MulticastSession(spec)
        network = spec.build_network()
        tree = UniversalTree.from_shortest_paths(network, 0)
        direct_shap = UniversalTreeShapleyMechanism(tree)
        direct_jv = EuclideanJVMechanism(network, 0)
        for profile in profiles_for(spec):
            for name, direct in (("tree-shapley", direct_shap), ("jv", direct_jv)):
                a, b = session.run(name, profile), direct.run(profile)
                assert a.receivers == b.receivers
                assert a.shares == b.shares
                assert a.cost == b.cost

    def test_run_batch_equals_per_call_runs(self):
        spec = small_spec()
        profiles = profiles_for(spec)
        cases = [("jv", {})] + [
            (name, {"tree": kind})
            for name in ("tree-shapley", "tree-mc")
            for kind in ("spt", "mst", "star")]
        for name, params in cases:
            batch_session, call_session = MulticastSession(spec), MulticastSession(spec)
            batched = batch_session.run_batch(name, profiles, **params)
            singly = [call_session.run(name, p, **params) for p in profiles]
            assert len(batched) == len(profiles)
            for a, b in zip(batched, singly):
                assert a.receivers == b.receivers and a.shares == b.shares
                assert a.cost == b.cost
                if name == "jv":
                    assert a.extra["closure_mst_weight"] == \
                        b.extra["closure_mst_weight"]
                if name == "tree-mc":  # MC may run a deficit, never a surplus
                    assert a.total_charged() <= a.cost + 1e-9

    def test_method_cache_accumulates_hits(self):
        spec = small_spec()
        profiles = profiles_for(spec, n_profiles=8)
        for name in ("tree-shapley", "jv"):
            session = MulticastSession(spec)
            session.run_batch(name, profiles)
            cache = session.method_cache(name)
            assert cache.hits > 0
            info = session.cache_info()["methods"][name]
            assert info["hits"] == cache.hits and 0 < info["hit_rate"] <= 1

    def test_mechanisms_without_method_have_no_cache(self):
        session = MulticastSession(small_spec())
        assert session.method_cache("tree-mc") is None
        assert session.method_cache("wireless") is None

    def test_run_accepts_mechanism_spec_with_overrides(self):
        spec = small_spec()
        session = MulticastSession(spec)
        profile = profiles_for(spec, n_profiles=1)[0]
        mspec = MechanismSpec("wireless", {"mode": "branch"})
        a = session.run(mspec, profile)
        b = session.run("wireless", profile, mode="branch")
        assert a.shares == b.shares
        assert session.mechanism(mspec) is session.mechanism("wireless", mode="branch")

    def test_repr(self):
        assert "random" in repr(MulticastSession(small_spec()))
