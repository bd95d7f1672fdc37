"""MicroBatcher: per-key group commit, per-request failure isolation —
and results always equal direct runs.

No pytest-asyncio in this environment: each test drives its own loop via
``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import threading

from repro.api import MulticastSession, ScenarioSpec, result_to_dict
from repro.service import MicroBatcher, SessionStore, parse_run_request


def _spec(seed: int, n: int = 6) -> ScenarioSpec:
    return ScenarioSpec.from_random(n=n, alpha=2.0, seed=seed, side=5.0)


def _request(spec: ScenarioSpec, mechanism: str, utility: float = 4.0):
    return parse_run_request({
        "scenario": spec.to_dict(),
        "mechanism": mechanism,
        "profiles": [{str(a): utility for a in spec.agents()}],
    })


def _wire(results) -> list[dict]:
    return [result_to_dict(r) for r in results]


def _gate(batcher: MicroBatcher, blocked) -> threading.Event:
    """Hold every execution of a request for which ``blocked(request)``
    on the worker thread until the returned event is set."""
    release = threading.Event()
    run_one = batcher._run_one

    def gated(entry, request):
        if blocked(request):
            assert release.wait(timeout=30.0)
        return run_one(entry, request)

    batcher._run_one = gated
    return release


def test_burst_collects_one_flush_and_results_match_direct():
    spec = _spec(0)
    requests = [_request(spec, m, u)
                for m in ("tree-shapley", "tree-mc", "jv") for u in (2.0, 6.0)]

    async def go():
        batcher = MicroBatcher(SessionStore(capacity=4))
        outs = await asyncio.gather(*(batcher.submit(r) for r in requests))
        return batcher, outs

    batcher, outs = asyncio.run(go())
    session = MulticastSession(spec)
    for request, results in zip(requests, outs):
        assert _wire(results) == _wire(
            session.run_batch(request.mechanism, list(request.profiles)))
    stats = batcher.stats()
    assert stats["batches"] == 1  # all six rode one flush
    assert stats["max_batch_size"] == len(requests)
    assert stats["batched_requests"] == len(requests)
    assert batcher.store.stats()["misses"] == 1  # one session for the group


def test_thirty_concurrent_submits_on_one_key_form_one_flush():
    spec = _spec(12)
    requests = [_request(spec, "tree-shapley", float(u)) for u in range(30)]

    async def go():
        batcher = MicroBatcher(SessionStore(capacity=4))
        await asyncio.gather(*(batcher.submit(r) for r in requests))
        return batcher.stats()

    stats = asyncio.run(go())
    assert stats["batches"] == 1
    assert stats["max_batch_size"] == stats["batched_requests"] == 30


def test_distinct_scenarios_split_into_one_flush_each():
    specs = [_spec(1), _spec(2), _spec(3)]
    requests = [_request(s, "tree-shapley") for s in specs]

    async def go():
        batcher = MicroBatcher(SessionStore(capacity=4))
        outs = await asyncio.gather(*(batcher.submit(r) for r in requests))
        return batcher, outs

    batcher, outs = asyncio.run(go())
    for spec, request, results in zip(specs, requests, outs):
        direct = MulticastSession(spec).run_batch(
            request.mechanism, list(request.profiles))
        assert _wire(results) == _wire(direct)
    assert batcher.stats()["batches"] == len(specs)
    assert batcher.stats()["batched_requests"] == 0
    assert batcher.store.stats()["misses"] == len(specs)  # one build each


def test_lone_request_flushes_without_a_clock_delay():
    spec = _spec(8)

    async def go():
        batcher = MicroBatcher(SessionStore(capacity=4))
        task = asyncio.ensure_future(batcher.submit(_request(spec, "tree-shapley")))
        await asyncio.sleep(0)  # the submit enqueues and schedules its flush
        await asyncio.sleep(0)  # the flush takes the request
        assert batcher.pending() == 0
        return await asyncio.wait_for(task, timeout=10.0)

    assert len(asyncio.run(go())) == 1


def test_zero_window_executes_each_request_immediately():
    """There is no collection window: sequential requests each flush
    alone, still through the store's warm session."""
    spec = _spec(5)

    async def go():
        batcher = MicroBatcher(SessionStore(capacity=4))
        first = await batcher.submit(_request(spec, "tree-shapley"))
        second = await batcher.submit(_request(spec, "tree-shapley"))
        return batcher, first, second

    batcher, first, second = asyncio.run(go())
    assert _wire(first) == _wire(second)
    stats = batcher.stats()
    assert stats["batches"] == 2 and stats["batched_requests"] == 0
    # Warm store: the second flush reuses the session.
    assert batcher.store.stats()["hits"] == 1


def test_slow_flush_of_one_key_does_not_delay_another():
    slow, fast = _request(_spec(9), "jv"), _request(_spec(10), "jv")

    async def go():
        batcher = MicroBatcher(SessionStore(capacity=4))
        release = _gate(batcher, lambda request: request.key == slow.key)
        try:
            slow_task = asyncio.ensure_future(batcher.submit(slow))
            results = await asyncio.wait_for(batcher.submit(fast), timeout=10.0)
            assert not slow_task.done()
        finally:
            release.set()
        await asyncio.wait_for(slow_task, timeout=10.0)
        return results

    results = asyncio.run(go())
    direct = MulticastSession(_spec(10)).run_batch("jv", list(fast.profiles))
    assert _wire(results) == _wire(direct)


def test_requests_arriving_during_a_flush_share_the_next_one():
    spec = _spec(11)
    first = _request(spec, "tree-shapley")
    later = [_request(spec, "tree-mc", u) for u in (1.0, 2.0, 3.0)]

    async def go():
        batcher = MicroBatcher(SessionStore(capacity=4))
        release = _gate(batcher, lambda request: request is first)
        try:
            tasks = [asyncio.ensure_future(batcher.submit(first))]
            await asyncio.sleep(0)  # the submit schedules its flush
            await asyncio.sleep(0)  # the flush starts, and blocks
            assert batcher.pending() == 0 and batcher._running
            tasks += [asyncio.ensure_future(batcher.submit(r)) for r in later]
            await asyncio.sleep(0)
            assert batcher.pending() == len(later)
        finally:
            release.set()
        await asyncio.wait_for(asyncio.gather(*tasks), timeout=10.0)
        return batcher

    batcher = asyncio.run(go())
    stats = batcher.stats()
    assert stats["batches"] == 2
    assert stats["max_batch_size"] == stats["batched_requests"] == len(later)
    occupancy, = batcher.registry.snapshot()["repro_batch_occupancy"]["series"]
    assert occupancy["count"] == 2 and occupancy["sum"] == 1 + len(later)
    assert occupancy["buckets"]["1"] == 1  # the first flush held one


def test_per_request_failure_does_not_poison_the_batch():
    spec = _spec(6)
    good = _request(spec, "tree-shapley")
    bad = parse_run_request({
        "scenario": spec.to_dict(), "mechanism": "tree-shapley",
        # Wire-valid but semantically wrong: agent 999 does not exist in
        # the scenario, which only the mechanism's own validation sees.
        "profiles": [{str(a): 1.0 for a in spec.agents()} | {"999": 1.0}],
    })

    async def go():
        batcher = MicroBatcher(SessionStore(capacity=4))
        outs = await asyncio.gather(batcher.submit(good), batcher.submit(bad),
                                    batcher.submit(good),
                                    return_exceptions=True)
        return batcher, outs

    batcher, (first, failure, third) = asyncio.run(go())
    assert batcher.stats()["batches"] == 1  # all three shared the flush
    assert isinstance(failure, ValueError) and "999" in str(failure)
    assert _wire(first) == _wire(third)
    direct = MulticastSession(spec).run_batch(good.mechanism, list(good.profiles))
    assert _wire(first) == _wire(direct)


def test_drain_flushes_pending_work():
    spec = _spec(7)

    async def go():
        batcher = MicroBatcher(SessionStore(capacity=4))
        task = asyncio.ensure_future(batcher.submit(_request(spec, "jv")))
        await asyncio.sleep(0)  # the submit enqueues; its flush is scheduled
        assert batcher.pending() == 1
        await batcher.drain()   # waits out the scheduled and running flush
        assert batcher.pending() == 0 and not batcher._running
        return await asyncio.wait_for(task, timeout=1.0)

    results = asyncio.run(go())
    assert len(results) == 1
