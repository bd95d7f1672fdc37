"""Tests for the ``receivers`` scenario axis (terminal-restricted agents).

An explicit ``receivers`` subset is what makes n=10^3..10^4 instances
tractable: sessions build terminal-sourced closures over
``{source} + receivers`` and mechanisms price only the named agents.
These tests pin the threading through spec -> session -> mechanisms,
the rejection paths of full-station mechanisms, and the sweep runner's
profile restriction.
"""

import dataclasses

import numpy as np
import pytest

from repro.api import ScenarioSpec
from repro.api.session import MulticastSession
from repro.dynamic.spec import ChurnSpec, DynamicScenarioSpec
from repro.runner.execute import make_profiles
from repro.runner.spec import ProfileSpec


def spec_with(receivers, n=12, seed=0):
    return dataclasses.replace(
        ScenarioSpec.from_random(n=n, alpha=2.0, seed=seed),
        receivers=receivers)


class TestSpecValidation:
    def test_agents_default_is_all_non_source(self):
        spec = ScenarioSpec.from_random(n=6, alpha=2.0, seed=0)
        assert spec.agents() == [1, 2, 3, 4, 5]

    def test_agents_with_receivers(self):
        spec = spec_with((3, 1, 5))
        assert spec.receivers == (1, 3, 5)  # normalized sorted
        assert spec.agents() == [1, 3, 5]

    def test_source_excluded(self):
        with pytest.raises(ValueError, match="source"):
            spec_with((0, 1))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            spec_with((1, 99))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spec_with(())

    def test_duplicates_collapse(self):
        spec = spec_with((2, 2, 4))
        assert spec.receivers == (2, 4)

    def test_round_trips_through_json(self):
        spec = spec_with((1, 4))
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.receivers == (1, 4)

    def test_none_round_trips(self):
        spec = ScenarioSpec.from_random(n=6, alpha=2.0, seed=0)
        assert ScenarioSpec.from_json(spec.to_json()).receivers is None

    def test_dynamic_spec_rejects_receivers(self):
        with pytest.raises(ValueError, match="churn"):
            DynamicScenarioSpec(
                kind="random", n=8, alpha=2.0, seed=0,
                churn=ChurnSpec(epochs=2, seed=0),
                receivers=(1, 2))


class TestSessionThreading:
    def test_terminal_closure_built_lazily(self):
        sess = MulticastSession(spec_with((1, 3, 5)))
        assert sess.cache_info()["terminal_closure_built"] is False
        tc = sess.terminal_closure()
        assert sess.cache_info()["terminal_closure_built"] is True
        assert tc.covers([0, 1, 3, 5])
        assert sess.terminal_closure() is tc  # cached

    def test_terminal_closure_falls_back_to_full(self):
        sess = MulticastSession(ScenarioSpec.from_random(n=8, alpha=2.0, seed=0))
        closure = sess.terminal_closure()
        assert closure is sess.metric_closure()
        assert closure.terminals == tuple(range(8))
        assert np.array_equal(closure.rows, sess.network.as_dense().all_pairs_arrays())

    def test_agents(self):
        sess = MulticastSession(spec_with((2, 6)))
        assert sess.agents() == [2, 6]


class TestMechanismThreading:
    @pytest.mark.parametrize("name", ["tree-shapley", "tree-mc", "jv",
                                      "jv-approx", "bird-approx",
                                      "wireless", "nwst"])
    def test_restricted_mechanisms_price_the_subset(self, name):
        recv = (1, 3, 5, 7)
        sess = MulticastSession(spec_with(recv))
        mech = sess.mechanism(name)
        result = mech.run({i: 1000.0 for i in recv})
        assert result.receivers <= frozenset(recv)
        assert set(result.shares) <= set(recv)

    @pytest.mark.parametrize("name", ["tree-shapley", "jv"])
    def test_matches_unrestricted_on_full_set(self, name):
        base = ScenarioSpec.from_random(n=10, alpha=2.0, seed=3)
        full = dataclasses.replace(base, receivers=tuple(range(1, 10)))
        profile = {i: float(5 + i) for i in range(1, 10)}
        r_base = MulticastSession(base).mechanism(name).run(profile)
        r_full = MulticastSession(full).mechanism(name).run(profile)
        assert r_base.receivers == r_full.receivers
        assert r_base.shares == r_full.shares
        assert r_base.cost == r_full.cost

    @pytest.mark.parametrize("name", ["euclid-shapley", "euclid-mc",
                                      "exact-shapley", "exact-mc"])
    def test_full_station_mechanisms_reject_subset(self, name):
        sess = MulticastSession(spec_with((1, 2), n=6))
        with pytest.raises(ValueError, match="receivers"):
            sess.mechanism(name)


class TestSweepProfiles:
    def test_profiles_restricted_to_receivers(self):
        spec = spec_with((1, 4, 7))
        sess = MulticastSession(spec)
        profiles = make_profiles(sess.network, sess.source, spec,
                                 ProfileSpec(generator="uniform", count=3))
        for profile in profiles:
            assert set(profile) == {1, 4, 7}

    def test_unrestricted_profiles_byte_identical_to_legacy(self):
        spec = ScenarioSpec.from_random(n=9, alpha=2.0, seed=5)
        sess = MulticastSession(spec)
        pspec = ProfileSpec(generator="uniform", count=3)
        profiles = make_profiles(sess.network, sess.source, spec, pspec)
        # the restriction filter must not perturb the rng stream
        from repro.analysis.instances import random_utilities

        rng = np.random.default_rng(pspec.derive_seed(spec))
        legacy = [random_utilities(sess.network, sess.source, rng, scale=pspec.scale)
                  for _ in range(3)]
        assert profiles == legacy

    def test_constant_profiles_restricted(self):
        spec = spec_with((2, 5))
        sess = MulticastSession(spec)
        profiles = make_profiles(sess.network, sess.source, spec,
                                 ProfileSpec(generator="constant", count=2,
                                             scale=4.0))
        assert profiles == [{2: 4.0, 5: 4.0}] * 2
