"""Service throughput: micro-batched warm serving vs unbatched cold runs.

The workload a serving layer exists for: the *same* scenario priced over
and over (a popular multicast group under changing bids).  The unbatched
baseline answers each request the way a stateless endpoint would — the
identical service stack with retention and batching switched off, so a
fresh :class:`~repro.api.MulticastSession` is built per request.  The
batched path serves the identical request stream warm — LRU session
reuse, concurrent requests sharing one flush, ``run_batch`` sharing the
memoised ``xi`` cache — and must deliver at least 2x the throughput
while answering bit-identically.

Recorded under the ``EXP-S1 service`` group so the timing merges into
``benchmarks/out/BENCH_S1.json`` and is gated by
``benchmarks/check_regression.py`` in CI.
"""

import asyncio
import json
import time

import numpy as np
import pytest

from repro.api import ScenarioSpec
from repro.service import CostSharingService, ServiceClient

from conftest import record

N = 60
N_REQUESTS = 30
N_PROFILES = 3
ROUNDS = 3
MECHANISMS = ("tree-shapley",)
MIN_SPEEDUP = 2.0


def _workload():
    """A popular multicast group being re-priced as bids fluctuate: every
    request fresh utility draws, most agents bidding enough to stay
    subscribed (the Moulin-Shenker iteration then revisits receiver sets
    the shared ``xi`` cache has already priced)."""
    spec = ScenarioSpec.from_random(n=N, dim=2, alpha=2.0, seed=11, side=8.0)
    rng = np.random.default_rng(7)
    agents = spec.agents()
    requests = []
    for index in range(N_REQUESTS):
        profiles = [{a: float(rng.uniform(10.0, 60.0)) for a in agents}
                    for _ in range(N_PROFILES)]
        requests.append((MECHANISMS[index % len(MECHANISMS)], profiles))
    return spec, requests


def _run_unbatched(spec, requests):
    """The stateless baseline: the same service stack with the warm
    machinery switched off — no session retention (``cache_size=0``) and
    one request in flight at a time, so every flush holds one request.
    Every request pays the cold network/tree build; protocol costs are
    identical to the batched path, so the ratio isolates what the
    subsystem adds."""

    async def go():
        service = CostSharingService(cache_size=0)
        client = ServiceClient(service)
        responses = []
        for mechanism, profiles in requests:  # closed loop, concurrency 1
            responses.append(await client.run(spec, mechanism, profiles))
        await service.drain()
        return responses, service

    responses, service = asyncio.run(go())
    assert all(status == 200 for status, _ in responses)
    assert service.store.stats()["hits"] == 0  # genuinely cold every time
    return [payload["results"] for _, payload in responses]


def _run_batched(spec, requests):
    """The same stream through the warm service: LRU session reuse +
    micro-batched concurrent submission."""

    async def go():
        service = CostSharingService(cache_size=8)
        client = ServiceClient(service)
        responses = await asyncio.gather(*(
            client.run(spec, mechanism, profiles)
            for mechanism, profiles in requests))
        await service.drain()
        return responses, service

    responses, service = asyncio.run(go())
    assert all(status == 200 for status, _ in responses)
    assert service.batcher.stats()["max_batch_size"] >= 2
    return [payload["results"] for _, payload in responses]


def _best_of(fn, *args, rounds=ROUNDS):
    best, out = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


@pytest.mark.benchmark(group="EXP-S1 service")
def test_batched_service_throughput(benchmark):
    spec, requests = _workload()

    unbatched_s, unbatched_out = _best_of(_run_unbatched, spec, requests)
    batched_s, batched_out = _best_of(_run_batched, spec, requests)

    # Bit-identical first: batching may only change the speed.
    assert json.dumps(batched_out, sort_keys=True) == json.dumps(
        unbatched_out, sort_keys=True)

    benchmark.pedantic(_run_batched, args=(spec, requests),
                       rounds=ROUNDS, iterations=1)

    speedup = unbatched_s / batched_s
    record("BENCH_SERVICE",
           f"service throughput n={N} requests={N_REQUESTS}x{N_PROFILES}: "
           f"unbatched {unbatched_s:.3f}s ({N_REQUESTS / unbatched_s:.1f} req/s), "
           f"batched {batched_s:.3f}s ({N_REQUESTS / batched_s:.1f} req/s), "
           f"speedup x{speedup:.2f} (floor x{MIN_SPEEDUP})")
    assert speedup >= MIN_SPEEDUP, (
        f"micro-batched serving only reached {speedup:.2f}x over the "
        f"unbatched baseline (need >= {MIN_SPEEDUP}x)")
