"""Instrumentation overhead: the observed service vs the null registry.

Telemetry must be close to free, or nobody leaves it on.  This runs the
``bench_service.py`` warm workload (the n=60 popular-group re-pricing
stream) twice through the identical service stack: once with the default
:class:`~repro.observability.MetricsRegistry` (every stage histogram,
store/batch counter and HTTP family live), once with
:class:`~repro.observability.NullRegistry` — the same code paths with
every instrument a no-op.  The gate: instrumentation may cost at most
5% of the un-instrumented wall clock (plus a small absolute allowance
for timer noise on sub-second runs), and responses must stay
bit-identical — telemetry watches the pipeline, it never feeds back.

The same gate covers request tracing: the fully-traced service (a
:class:`~repro.observability.SpanRecorder` narrating every request's
span family into a memory ring) may cost at most 5% over the untraced
default, with responses again bit-identical — spans watch, they never
feed back.

Recorded under the ``EXP-S1 observability`` group so the timing merges
into ``benchmarks/out/BENCH_S1.json`` and is gated by
``benchmarks/check_regression.py`` in CI.
"""

import asyncio
import json
import time

import numpy as np
import pytest

from repro.api import ScenarioSpec
from repro.observability import MetricsRegistry, NullRegistry, SpanRecorder
from repro.service import CostSharingService, ServiceClient

from conftest import record

N = 60
N_REQUESTS = 30
N_PROFILES = 3
ROUNDS = 3
MAX_OVERHEAD = 1.05   # instrumented may cost at most 5% over the null run
ABS_SLACK_S = 0.020   # absolute allowance for timer noise on short runs


def _workload():
    spec = ScenarioSpec.from_random(n=N, dim=2, alpha=2.0, seed=11, side=8.0)
    rng = np.random.default_rng(7)
    agents = spec.agents()
    requests = []
    for _ in range(N_REQUESTS):
        profiles = [{a: float(rng.uniform(10.0, 60.0)) for a in agents}
                    for _ in range(N_PROFILES)]
        requests.append(("tree-shapley", profiles))
    return spec, requests


def _serve(spec, requests, registry, spans=None):
    """The warm service loop of ``bench_service.py``, with the registry
    (and optionally a span recorder) injected: same LRU reuse, same
    flushes, same thread pool."""

    async def go():
        service = CostSharingService(cache_size=8, registry=registry,
                                     spans=spans)
        client = ServiceClient(service)
        responses = await asyncio.gather(*(
            client.run(spec, mechanism, profiles)
            for mechanism, profiles in requests))
        await service.drain()
        return responses, service

    responses, service = asyncio.run(go())
    assert all(status == 200 for status, _ in responses)
    return [payload["results"] for _, payload in responses], service


def _best_of(fn, *args, rounds=ROUNDS):
    best, out = float("inf"), None
    for _ in range(rounds):
        t0 = time.perf_counter()
        out = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, out


@pytest.mark.benchmark(group="EXP-S1 observability")
def test_observability_overhead_within_five_percent(benchmark):
    spec, requests = _workload()

    def instrumented():
        return _serve(spec, requests, MetricsRegistry())

    def null_baseline():
        return _serve(spec, requests, NullRegistry())

    null_s, (null_out, _) = _best_of(null_baseline)
    instrumented_s, (instrumented_out, service) = _best_of(instrumented)

    # Telemetry never feeds back into response bytes.
    assert json.dumps(instrumented_out, sort_keys=True) == json.dumps(
        null_out, sort_keys=True)
    # ... and the instrumented run really did observe the pipeline (the
    # batcher looks the scenario up once per flush group, so lookups
    # counts groups, not requests).
    stats = service.store.stats()
    assert stats["lookups"] >= 1
    assert stats["hits"] + stats["misses"] + stats["coalesced"] == stats["lookups"]
    assert service.registry.snapshot()["repro_stage_seconds"]["series"]

    benchmark.pedantic(instrumented, rounds=ROUNDS, iterations=1)

    overhead = instrumented_s / null_s
    record("BENCH_OBSERVABILITY",
           f"observability overhead n={N} requests={N_REQUESTS}x{N_PROFILES}: "
           f"null-registry {null_s:.3f}s, instrumented {instrumented_s:.3f}s, "
           f"ratio x{overhead:.3f} (gate x{MAX_OVERHEAD} + {ABS_SLACK_S:.3f}s)")
    assert instrumented_s <= null_s * MAX_OVERHEAD + ABS_SLACK_S, (
        f"instrumentation costs {overhead:.3f}x the null-registry baseline "
        f"({instrumented_s:.3f}s vs {null_s:.3f}s; gate {MAX_OVERHEAD}x "
        f"+ {ABS_SLACK_S}s)")


@pytest.mark.benchmark(group="EXP-S1 observability tracing")
def test_tracing_overhead_within_five_percent(benchmark):
    spec, requests = _workload()

    def traced():
        # Memory-ring recorder: what `/v1/stats` exemplars run on.  The
        # export-to-file path is I/O-bound and measured by the CI smoke
        # job, not this CPU gate.
        return _serve(spec, requests, MetricsRegistry(),
                      spans=SpanRecorder(limit=4096))

    def untraced():
        return _serve(spec, requests, MetricsRegistry())

    untraced_s, (untraced_out, _) = _best_of(untraced)
    traced_s, (traced_out, service) = _best_of(traced)

    # Tracing never feeds back into response bytes.
    assert json.dumps(traced_out, sort_keys=True) == json.dumps(
        untraced_out, sort_keys=True)
    # ... and the traced run really did narrate the pipeline: one
    # request span per request, with stage legs alongside.
    assert len(service.spans.recent("request")) == N_REQUESTS
    assert service.spans.recent("execute")
    assert service.spans.stats_payload()["recorded"] >= 3 * N_REQUESTS

    benchmark.pedantic(traced, rounds=ROUNDS, iterations=1)

    overhead = traced_s / untraced_s
    record("BENCH_TRACING",
           f"tracing overhead n={N} requests={N_REQUESTS}x{N_PROFILES}: "
           f"untraced {untraced_s:.3f}s, traced {traced_s:.3f}s, "
           f"ratio x{overhead:.3f} (gate x{MAX_OVERHEAD} + {ABS_SLACK_S:.3f}s)")
    assert traced_s <= untraced_s * MAX_OVERHEAD + ABS_SLACK_S, (
        f"tracing costs {overhead:.3f}x the untraced baseline "
        f"({traced_s:.3f}s vs {untraced_s:.3f}s; gate {MAX_OVERHEAD}x "
        f"+ {ABS_SLACK_S}s)")
