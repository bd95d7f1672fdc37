"""Tests for repro.engine.batch: the xi memo, the sweep helpers, and the
batch path built on them (:meth:`repro.api.MulticastSession.run_batch`)."""

import numpy as np
import pytest

import repro.engine as engine
from repro.analysis.instances import random_utilities
from repro.api import MulticastSession
from repro.core import EuclideanJVMechanism, UniversalTreeShapleyMechanism
from repro.engine.batch import MethodCache, sweep_instances
from repro.geometry import uniform_points
from repro.wireless import EuclideanCostGraph, UniversalTree


def small_network(n=7, seed=0):
    return EuclideanCostGraph(uniform_points(n, 2, rng=seed, side=5.0), alpha=2.0)


def profile_stream(network, k, seed=0, scale=2.0):
    rng = np.random.default_rng(seed)
    return [random_utilities(network, 0, rng, scale=scale) for _ in range(k)]


class TestMethodCache:
    def test_memoises_and_counts(self):
        calls = []

        def method(R):
            calls.append(R)
            return {i: 1.0 for i in R}

        cache = MethodCache(method)
        R = frozenset({1, 2})
        assert cache(R) == {1: 1.0, 2: 1.0}
        assert cache(R) == {1: 1.0, 2: 1.0}
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == 0.5

    def test_returns_fresh_copies(self):
        cache = MethodCache(lambda R: {i: 1.0 for i in R})
        first = cache(frozenset({1}))
        first[1] = 99.0
        assert cache(frozenset({1})) == {1: 1.0}

    def test_clear(self):
        cache = MethodCache(lambda R: {})
        cache(frozenset())
        cache.clear()
        assert cache.hits == 0 and cache.misses == 0 and cache.hit_rate == 0.0


class TestUniversalTreeBatch:
    def test_identical_to_per_profile_runs(self):
        network = small_network(8, seed=3)
        profiles = profile_stream(network, 8, seed=1)
        session = MulticastSession(network, source=0)
        batched = session.run_batch("tree-shapley", profiles, tree="spt")
        tree = UniversalTree.from_shortest_paths(network, 0)
        for result, profile in zip(batched, profiles):
            solo = UniversalTreeShapleyMechanism(tree).run(profile)
            assert result.receivers == solo.receivers
            assert result.shares == solo.shares
            assert result.cost == solo.cost
        # the stream actually shared work
        assert session.method_cache("tree-shapley", tree="spt").hits > 0

    def test_marginal_cost_stream(self):
        network = small_network(6, seed=5)
        profiles = profile_stream(network, 3, seed=2)
        results = MulticastSession(network, source=0).run_batch("tree-mc", profiles)
        assert len(results) == 3
        for r in results:
            assert r.total_charged() <= r.cost + 1e-9  # MC may run a deficit

    def test_tree_kinds_and_validation(self):
        network = small_network(5)
        session = MulticastSession(network, source=0)
        assert session.universal_tree("mst").parents[0] is None
        assert session.universal_tree("star").parents[3] == 0
        with pytest.raises(ValueError):
            session.run_batch("tree-shapley", profile_stream(network, 2), tree="bogus")


class TestJVBatch:
    def test_identical_to_per_profile_runs(self):
        network = small_network(7, seed=9)
        profiles = profile_stream(network, 5, seed=4)
        batched = MulticastSession(network, source=0).run_batch("jv", profiles)
        mech = EuclideanJVMechanism(network, 0)
        for result, profile in zip(batched, profiles):
            solo = mech.run(profile)
            assert result.receivers == solo.receivers
            assert result.shares == solo.shares
            assert result.extra["closure_mst_weight"] == \
                solo.extra["closure_mst_weight"]


class TestSweepInstances:
    def test_rows_tagged_with_instance_index(self):
        rows = sweep_instances([10, 20], lambda x: {"value": x * 2})
        assert rows == [{"value": 20, "instance": 0}, {"value": 40, "instance": 1}]

    def test_explicit_instance_key_kept(self):
        rows = sweep_instances(["a"], lambda x: {"instance": "custom"})
        assert rows[0]["instance"] == "custom"


class TestLazyPackageExports:
    def test_batch_names_resolve_through_package(self):
        assert engine.MethodCache is MethodCache
        assert engine.sweep_instances is sweep_instances
        with pytest.raises(AttributeError):
            engine.does_not_exist
