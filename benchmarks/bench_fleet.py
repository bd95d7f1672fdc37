"""Fleet scaling: 1 -> 2 -> 4 worker processes on the n=60 mixed workload.

The single-process service is ultimately GIL-bound: one event loop, one
process, one core.  The fleet exists to scale past that, so this is the
gated claim — closed-loop throughput through the consistent-hash router
must grow at least ``0.7x linear`` in the worker count, with "linear"
clamped to the cores the machine can actually give the workers
(``os.cpu_count() - 1``, one core reserved for the router and the
loadgen client threads; on a single-core runner every fleet size is
held to the 1-worker floor, i.e. the router hop must not cost more than
30%).

The workload is the mixed fleet shape: 8 distinct n=60 scenarios under
a mild Zipf skew (every shard owns some keys, the head keys stay warm
in their owners' LRUs), driven closed-loop over real sockets by the
deterministic loadgen.  Each fleet size gets its own benchmark case
under the ``EXP-S1 fleet`` group, so the medians merge into
``benchmarks/out/BENCH_S1.json`` and regress-gate in CI via
``check_regression.py --require fleet``.
"""

import os
import time

import pytest

from repro.service import BackgroundServer, Fleet
from repro.service.loadgen import run_loadgen

from conftest import record

N = 60
N_REQUESTS = 32
N_KEYS = 8
ZIPF = 0.8
CONCURRENCY = 8
PROFILES = 2
ROUNDS = 3
WORKER_COUNTS = (1, 2, 4)
MIN_SCALE = 0.7

_throughput: dict[int, float] = {}


def _burst(port: int):
    report = run_loadgen(
        host="127.0.0.1", port=port, requests=N_REQUESTS,
        concurrency=CONCURRENCY, n=N, alpha=2.0, side=8.0, seeds=[0],
        layouts=["uniform"], mechanisms=["tree-shapley"],
        profile_count=PROFILES, keys=N_KEYS, zipf=ZIPF)
    assert report.statuses == {200: N_REQUESTS}, report.statuses
    return report


def _usable_cores() -> int:
    return max(1, (os.cpu_count() or 1) - 1)


@pytest.mark.benchmark(group="EXP-S1 fleet")
@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_fleet_throughput_scales(benchmark, workers):
    fleet = Fleet(workers=workers, cache_size=16)
    router = fleet.start()
    server = BackgroundServer(router)
    port = server.start()
    try:
        report = _burst(port)  # warm every shard's LRU before timing
        assert len(report.observed_shards()) == workers

        best = float("inf")
        for _ in range(ROUNDS):
            t0 = time.perf_counter()
            _burst(port)
            best = min(best, time.perf_counter() - t0)
        _throughput[workers] = N_REQUESTS / best

        benchmark.pedantic(_burst, args=(port,), rounds=ROUNDS, iterations=1)
    finally:
        server.stop()
        fleet.shutdown()

    throughput = _throughput[workers]
    floor = MIN_SCALE * min(workers, _usable_cores())
    baseline = _throughput.get(1)
    record(
        f"BENCH_FLEET_W{workers}",
        f"fleet throughput n={N} requests={N_REQUESTS}x{PROFILES} "
        f"keys={N_KEYS} zipf={ZIPF}: workers={workers} "
        f"{throughput:.1f} req/s"
        + (f", scale x{throughput / baseline:.2f} vs 1 worker "
           f"(floor x{floor:.2f} on {os.cpu_count()} cores)"
           if baseline else ""))
    # Parametrization runs 1 first; later sizes gate against it.
    if baseline is not None and workers > 1:
        scale = throughput / baseline
        assert scale >= floor, (
            f"{workers}-worker fleet reached only {scale:.2f}x the "
            f"1-worker throughput (need >= {floor:.2f}x = "
            f"{MIN_SCALE} * min(workers, cores-1) on "
            f"{os.cpu_count()} cores)")
