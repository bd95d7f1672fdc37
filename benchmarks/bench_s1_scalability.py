"""EXP-S1 — scalability: mechanism runtimes vs instance size.

These are honest pytest-benchmark timings (multiple rounds) of each
mechanism's `run`, showing the polynomial mechanisms scale and locating
the expensive pieces (the NWST spider search dominates the section 2.2
pipeline, as the paper's complexity discussion predicts).

The n = 120 universal-tree/JV cases and the n = 40 NWST case exercise the
``repro.engine`` array backend (vectorised Dijkstra/Prim, lockstep
node-weighted distances); machine-readable results land in
``benchmarks/out/BENCH_S1.json`` (see conftest).

Instance sizes are CLI-parameterizable: ``--s1-sizes 64,256`` overrides
the standard grid below, and ``--s1-large-sizes 2000`` overrides the
large-n session cases (receivers-restricted scenarios priced through the
terminal-sourced closure, including the ``*-approx`` Mehlhorn family).

The dense-receiver ``jv`` cases (every station in the profile, k = n - 1,
warm session) time what a repeated served request pays: the closure MST
behind the shares' total and the KMB served tree, rebuilt per request.
"""

import dataclasses

import numpy as np
import pytest

from repro.api import ScenarioSpec
from repro.api.session import MulticastSession
from repro.core import (
    EuclideanJVMechanism,
    EuclideanShapleyMechanism,
    NWSTMechanism,
    UniversalTreeMCMechanism,
    UniversalTreeShapleyMechanism,
    WirelessMulticastMechanism,
)
from repro.geometry import uniform_points
from repro.graphs.random_graphs import random_node_weighted_instance
from repro.wireless import EuclideanCostGraph, UniversalTree


STANDARD_SIZES = [10, 20, 40, 120]
LARGE_SIZES = [500]
APPROX_SIZES = [1000]
DENSE_JV_SIZES = [60, 200]


def _sizes(config, option, default):
    raw = config.getoption(option)
    if not raw:
        return default
    return [int(tok) for tok in raw.split(",") if tok.strip()]


def pytest_generate_tests(metafunc):
    if "s1_n" in metafunc.fixturenames:
        metafunc.parametrize(
            "s1_n", _sizes(metafunc.config, "--s1-sizes", STANDARD_SIZES)
        )
    if "s1_large_n" in metafunc.fixturenames:
        metafunc.parametrize(
            "s1_large_n", _sizes(metafunc.config, "--s1-large-sizes", LARGE_SIZES)
        )
    if "s1_approx_n" in metafunc.fixturenames:
        metafunc.parametrize(
            "s1_approx_n", _sizes(metafunc.config, "--s1-large-sizes", APPROX_SIZES)
        )


def euclid_case(n, dim=2, alpha=2.0, seed=0, scale=3.0):
    net = EuclideanCostGraph(uniform_points(n, dim, rng=seed, side=5.0), alpha)
    rng = np.random.default_rng(seed)
    typical = float(np.median(net.matrix[net.matrix > 0]))
    profile = {i: float(rng.uniform(0, scale * typical)) for i in range(1, n)}
    return net, profile


@pytest.mark.benchmark(group="EXP-S1 universal-tree-shapley")
def test_scaling_universal_tree_shapley(benchmark, s1_n):
    net, profile = euclid_case(s1_n)
    mech = UniversalTreeShapleyMechanism(UniversalTree.from_shortest_paths(net, 0))
    result = benchmark(mech.run, profile)
    assert result.total_charged() == pytest.approx(result.cost)


@pytest.mark.benchmark(group="EXP-S1 universal-tree-mc")
def test_scaling_universal_tree_mc(benchmark, s1_n):
    net, profile = euclid_case(s1_n)
    mech = UniversalTreeMCMechanism(UniversalTree.from_shortest_paths(net, 0))
    result = benchmark(mech.run, profile)
    assert result.total_charged() <= result.cost + 1e-9


@pytest.mark.benchmark(group="EXP-S1 jv")
def test_scaling_jv(benchmark, s1_n):
    net, profile = euclid_case(s1_n)
    mech = EuclideanJVMechanism(net, 0)
    result = benchmark(mech.run, profile)
    assert result.total_charged() >= result.cost - 1e-9


@pytest.mark.benchmark(group="EXP-S1 euclidean-shapley-d1")
@pytest.mark.parametrize("n", [8, 12, 16])
def test_scaling_line_shapley(benchmark, n):
    net, profile = euclid_case(n, dim=1)
    mech = EuclideanShapleyMechanism(net, 0)
    result = benchmark(mech.run, profile)
    assert result.total_charged() >= -1e-9


@pytest.mark.benchmark(group="EXP-S1 nwst")
@pytest.mark.parametrize("n,k", [(12, 4), (16, 5), (40, 5)])
def test_scaling_nwst(benchmark, n, k):
    graph, weights, terminals = random_node_weighted_instance(n, k, rng=0)
    rng = np.random.default_rng(0)
    profile = {t: float(rng.uniform(0, 10)) for t in terminals}
    mech = NWSTMechanism(graph, weights, terminals)
    result = benchmark(mech.run, profile)
    assert result.total_charged() >= result.cost - 1e-9


@pytest.mark.benchmark(group="EXP-S1 wireless")
@pytest.mark.parametrize("n", [6, 8])
def test_scaling_wireless(benchmark, n):
    net, profile = euclid_case(n, scale=2.0)
    mech = WirelessMulticastMechanism(net, 0)
    result = benchmark(mech.run, profile)
    assert result.total_charged() >= result.cost - 1e-6


def large_session_case(n, k=16, seed=0):
    """A receivers-restricted scenario priced through the terminal-sourced
    closure (built once here so the rounds time the mechanism, not the
    one-off closure)."""
    spec = dataclasses.replace(
        ScenarioSpec.from_random(n=n, alpha=2.0, seed=seed),
        receivers=tuple(range(1, k + 1)),
    )
    sess = MulticastSession(spec)
    sess.terminal_closure()
    rng = np.random.default_rng(seed)
    profile = {i: float(rng.uniform(0.0, 50.0)) for i in sess.agents()}
    return sess, profile


@pytest.mark.benchmark(group="EXP-S1 large-n tree-shapley")
def test_scaling_large_tree_shapley(benchmark, s1_large_n):
    sess, profile = large_session_case(s1_large_n)
    mech = sess.mechanism("tree-shapley")
    result = benchmark(mech.run, profile)
    assert result.total_charged() == pytest.approx(result.cost)


@pytest.mark.benchmark(group="EXP-S1 large-n jv")
def test_scaling_large_jv(benchmark, s1_large_n):
    sess, profile = large_session_case(s1_large_n)
    mech = sess.mechanism("jv")
    result = benchmark(mech.run, profile)
    assert result.total_charged() >= result.cost - 1e-9


def dense_jv_session(n, seed=0):
    """Every station a receiver, warmed by one run: the closure and this
    profile's xi entries are built, so the rounds time a repeated request."""
    sess = MulticastSession(ScenarioSpec.from_random(n=n, alpha=2.0, seed=seed))
    rng = np.random.default_rng(seed)
    profile = {i: float(rng.uniform(0.0, 50.0)) for i in sess.agents()}
    sess.run("jv", profile)
    return sess, profile


@pytest.mark.benchmark(group="EXP-S1 dense-receiver jv")
@pytest.mark.parametrize("n", DENSE_JV_SIZES)
def test_scaling_dense_jv_warm(benchmark, n):
    sess, profile = dense_jv_session(n)
    result = benchmark(sess.run, "jv", profile)
    assert len(result.receivers) >= (n - 1) * 9 // 10
    assert result.total_charged() >= result.cost - 1e-9


@pytest.mark.benchmark(group="EXP-S1 approx")
@pytest.mark.parametrize("name", ["jv-approx", "bird-approx"])
def test_scaling_approx(benchmark, name, s1_approx_n):
    sess, profile = large_session_case(s1_approx_n)
    mech = sess.mechanism(name)
    result = benchmark(mech.run, profile)
    # charged = auxiliary MST weight: covers the built tree (cost
    # recovery) and stays within the declared 2x budget-balance factor
    assert result.total_charged() >= result.cost - 1e-9
    assert result.total_charged() <= 2.0 * result.cost + 1e-6
