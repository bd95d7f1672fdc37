"""SessionStore: LRU bounds, counters, one cold build per key."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.api import MulticastSession, ScenarioSpec, result_to_dict
from repro.dynamic import ChurnSpec, DynamicScenarioSpec, DynamicSession
from repro.service import MicroBatcher, SessionStore, parse_run_request, scenario_key
from repro.service import state as state_module


def _spec(seed: int, n: int = 6) -> ScenarioSpec:
    return ScenarioSpec.from_random(n=n, alpha=2.0, seed=seed, side=5.0)


def test_session_types_match_scenario_kind():
    store = SessionStore(capacity=4)
    static = store.get(_spec(0))
    assert isinstance(static.session, MulticastSession) and not static.is_dynamic
    dynamic_spec = DynamicScenarioSpec(
        kind="random", n=6, alpha=2.0, seed=0,
        churn=ChurnSpec(epochs=2, seed=1, join_rate=0.3, leave_rate=0.2))
    dynamic = store.get(dynamic_spec)
    assert isinstance(dynamic.session, DynamicSession) and dynamic.is_dynamic
    # The static spec and its churn extension are distinct keys.
    assert scenario_key(dynamic_spec) != scenario_key(_spec(0))
    assert len(store) == 2


def test_hit_miss_and_identity():
    store = SessionStore(capacity=4)
    first = store.get(_spec(1))
    again = store.get(_spec(1))
    assert again is first  # same warm object, not a rebuild
    other = store.get(_spec(2))
    assert other is not first
    stats = store.stats()
    assert (stats["hits"], stats["misses"], stats["size"]) == (1, 2, 2)


def test_lru_eviction_order_and_touch_on_hit():
    store = SessionStore(capacity=2)
    a, b = _spec(1), _spec(2)
    store.get(a)
    store.get(b)
    store.get(a)          # touch a: b is now least-recently-used
    store.get(_spec(3))   # evicts b
    assert store.stats()["evictions"] == 1
    assert scenario_key(a) in store
    assert scenario_key(b) not in store
    assert scenario_key(_spec(3)) in store


def test_capacity_zero_disables_retention():
    store = SessionStore(capacity=0)
    first = store.get(_spec(1))
    second = store.get(_spec(1))
    assert first is not second
    stats = store.stats()
    assert stats["size"] == 0 and stats["misses"] == 2 and stats["hits"] == 0
    with pytest.raises(ValueError):
        SessionStore(capacity=-1)


def test_eviction_mid_flight_keeps_handed_out_sessions_valid():
    """Evicting a scenario drops the store's reference only — a session
    already handed to a request keeps answering, bit-identically."""
    store = SessionStore(capacity=1)
    spec = _spec(4)
    profile = {a: 3.0 for a in spec.agents()}
    entry = store.get(spec)
    warm = result_to_dict(entry.session.run("tree-shapley", profile))
    store.get(_spec(5))  # evicts spec mid-flight
    assert scenario_key(spec) not in store
    still = result_to_dict(entry.session.run("tree-shapley", profile))
    cold = result_to_dict(MulticastSession(spec).run("tree-shapley", profile))
    assert still == warm == cold
    # The next request for the evicted scenario rebuilds cold.
    rebuilt = store.get(spec)
    assert rebuilt.session is not entry.session


def test_one_flush_per_key_builds_a_cold_scenario_once(monkeypatch):
    """Requests for one cold key that arrive while its build is held
    never reach the store concurrently: the micro-batcher runs one
    flush per key at a time, so they share the next flush's warm hit."""
    builds = []
    entered, release = threading.Event(), threading.Event()
    real_build = state_module.build_session

    def held_build(spec):
        builds.append(scenario_key(spec))
        entered.set()
        assert release.wait(timeout=10.0)
        return real_build(spec)

    monkeypatch.setattr(state_module, "build_session", held_build)
    spec = _spec(6)
    requests = [parse_run_request({
        "scenario": spec.to_dict(), "mechanism": "tree-shapley",
        "profiles": [{str(a): float(u) for a in spec.agents()}]})
        for u in range(1, 7)]

    async def go():
        batcher = MicroBatcher(SessionStore(capacity=4))
        first = asyncio.ensure_future(batcher.submit(requests[0]))
        await asyncio.get_running_loop().run_in_executor(
            None, entered.wait, 10.0)
        rest = [asyncio.ensure_future(batcher.submit(r)) for r in requests[1:]]
        await asyncio.sleep(0)
        release.set()
        outs = await asyncio.wait_for(asyncio.gather(first, *rest), 10.0)
        return batcher, outs

    batcher, outs = asyncio.run(go())
    assert len(builds) == 1  # one cold build, not six
    stats = batcher.store.stats()
    assert stats["misses"] == 1 and stats["hits"] == 1
    session = MulticastSession(spec)
    for request, results in zip(requests, outs):
        direct = session.run_batch(request.mechanism, list(request.profiles))
        assert ([result_to_dict(r) for r in results]
                == [result_to_dict(r) for r in direct])


def test_failed_build_propagates_and_key_recovers(monkeypatch):
    calls = []
    real_build = state_module.build_session

    def flaky_build(spec):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("backend exploded")
        return real_build(spec)

    monkeypatch.setattr(state_module, "build_session", flaky_build)
    store = SessionStore(capacity=4)
    with pytest.raises(RuntimeError, match="backend exploded"):
        store.get(_spec(7))
    # The key is clean again: the next request retries and succeeds.
    entry = store.get(_spec(7))
    assert isinstance(entry.session, MulticastSession)
    assert len(calls) == 2
