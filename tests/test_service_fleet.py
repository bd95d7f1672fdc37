"""The sharded fleet (repro.service.fleet), end to end.

The load-bearing property is **bit-identity**: a client cannot tell the
consistent-hash router from a single-process service — same bytes for
priced runs, split-and-merged batches, and every error path.  These
tests drive it with in-process workers (real ``CostSharingService``
instances behind real sockets via ``BackgroundServer``, wired into a
``FleetRouter`` as ``FleetWorker``s without subprocesses) so the full
wire path runs in milliseconds; one test boots the real
``python -m repro fleet`` subprocess tree — the exact shape the CI
fleet-smoke job uses.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import pathlib
import re
import socket
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import pytest

from repro.api import ScenarioSpec
from repro.observability import parse_exposition, sample_total
from repro.service import BackgroundServer, CostSharingService
from repro.service.fleet import FleetRouter, FleetWorker, WorkerClient, scenario_route_key
from repro.service.loadgen import build_keyed_requests, build_requests, run_loadgen

REPO_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run(coro, router=None):
    """Run ``coro`` on a fresh event loop.  With ``router``, drain it on
    that same loop afterwards: its pooled worker connections belong to
    the loop that opened them."""

    async def main():
        try:
            return await coro
        finally:
            if router is not None:
                await router.drain()

    return asyncio.run(main())


def wire_bytes(payload) -> bytes:
    """Serialize a dispatch payload exactly as ServiceServer._respond
    would put it on the wire."""
    if isinstance(payload, str):
        return payload.encode("utf-8")
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


@contextmanager
def fleet_router(n_workers: int = 2, **service_kwargs):
    """A FleetRouter over ``n_workers`` in-process services, each behind
    a real socket; yields (router, backing services)."""
    service_kwargs.setdefault("cache_size", 8)
    servers, services = [], []
    router = FleetRouter()
    try:
        for index in range(n_workers):
            shard = f"w{index}"
            service = CostSharingService(shard=shard, **service_kwargs)
            server = BackgroundServer(service)
            port = server.start()
            servers.append(server)
            services.append(service)
            router.attach(FleetWorker(shard, WorkerClient("127.0.0.1", port)))
        yield router, services
    finally:
        for server in servers:
            server.stop()


def _bodies(count: int = 10, n: int = 6) -> list[bytes]:
    schedule = build_requests(requests=count, n=n, alpha=2.0, side=10.0,
                              seeds=[0, 1], layouts=["uniform"],
                              mechanisms=["tree-shapley", "jv"],
                              profile_count=1)
    return [json.dumps(request, sort_keys=True).encode("utf-8")
            for request in schedule]


# -- bit-identity ------------------------------------------------------------
def test_run_responses_are_bit_identical_through_the_router():
    single = CostSharingService(cache_size=8)
    with fleet_router(3) as (router, _):

        async def scenario():
            for body in _bodies(12):
                expected = await single.dispatch("POST", "/v1/run", body)
                actual = await router.dispatch("POST", "/v1/run", body)
                assert actual[0] == expected[0] == 200
                assert wire_bytes(actual[1]) == wire_bytes(expected[1])
                assert actual[2]["X-Repro-Shard"].startswith("w")

        run(scenario(), router)


def test_batch_splits_across_shards_and_merges_bit_identically():
    single = CostSharingService(cache_size=16)
    with fleet_router(3) as (router, services):
        schedule = build_requests(requests=9, n=6, alpha=2.0, side=10.0,
                                  seeds=[0, 1, 2], layouts=["uniform", "ring"],
                                  mechanisms=["tree-shapley"], profile_count=1)
        body = json.dumps({"requests": schedule},
                          sort_keys=True).encode("utf-8")

        async def scenario():
            expected = await single.dispatch("POST", "/v1/batch", body)
            actual = await router.dispatch("POST", "/v1/batch", body)
            assert actual[0] == expected[0] == 200
            assert wire_bytes(actual[1]) == wire_bytes(expected[1])
            return actual[2]["X-Repro-Shard"]

        shards = run(scenario(), router)
        # Six distinct scenarios over three shards: the batch really
        # split (multiple shards answered) and really merged (above).
        assert len(shards.split(",")) >= 2
        touched = [s for s in services if s.store.stats()["lookups"] > 0]
        assert len(touched) >= 2


def test_error_paths_are_bit_identical_through_the_router():
    single = CostSharingService(cache_size=8)
    cases = [
        ("POST", "/v1/run", b"{not json"),
        ("POST", "/v1/run", b'{"scenario": 3}'),
        ("POST", "/v1/run", b'{"scenario": {"kind": "bogus"}}'),
        ("GET", "/v1/run", b""),                  # 405 + Allow header
        ("GET", "/totally/unknown", b""),         # 404
        ("POST", "/v1/batch", b'{"requests": "nope"}'),
        ("POST", "/v1/batch", b'{"requests": [{"scenario": 1}]}'),
    ]
    with fleet_router(2) as (router, _):

        async def scenario():
            for method, path, body in cases:
                expected = await single.dispatch(method, path, body)
                actual = await router.dispatch(method, path, body)
                assert actual[0] == expected[0], (method, path)
                assert wire_bytes(actual[1]) == wire_bytes(expected[1]), \
                    (method, path)
                if "Allow" in expected[2]:
                    assert actual[2]["Allow"] == expected[2]["Allow"]

        run(scenario(), router)


def test_oversized_batch_rejected_with_413_parity():
    single = CostSharingService(max_batch_requests=4)
    request = _bodies(1)[0]
    body = json.dumps({"requests": [json.loads(request)] * 5},
                      sort_keys=True).encode("utf-8")
    with fleet_router(2) as (router, _):
        router.max_batch_requests = 4

        async def scenario():
            expected = await single.dispatch("POST", "/v1/batch", body)
            actual = await router.dispatch("POST", "/v1/batch", body)
            assert actual[0] == expected[0] == 413
            assert wire_bytes(actual[1]) == wire_bytes(expected[1])

        run(scenario(), router)


# -- routing -----------------------------------------------------------------
def test_scenario_route_key_matches_the_store_key_for_canonical_clients():
    spec = ScenarioSpec.from_random(n=6, alpha=2.0, seed=3)
    body = json.dumps({"scenario": spec.to_dict(), "mechanism": "jv",
                       "profiles": [{}]}, sort_keys=True).encode("utf-8")
    assert scenario_route_key(body) == spec.to_json()
    # Undecodable bodies still route deterministically.
    assert scenario_route_key(b"junk") == scenario_route_key(b"junk")
    assert scenario_route_key(b"junk") != scenario_route_key(b"junk2")


def test_same_scenario_always_lands_on_the_same_shard():
    with fleet_router(3) as (router, services):
        body = _bodies(1)[0]

        async def scenario():
            shards = set()
            for _ in range(6):
                status, _, headers = await router.dispatch(
                    "POST", "/v1/run", body)
                assert status == 200
                shards.add(headers["X-Repro-Shard"])
            return shards

        shards = run(scenario(), router)
        assert len(shards) == 1  # warm affinity: one shard owns the key
        owner = [s for s in services if s.store.stats()["lookups"] > 0]
        assert len(owner) == 1
        assert owner[0].store.stats()["hits"] == 5  # warm after the first


def test_router_health_and_empty_ring_503():
    with fleet_router(2) as (router, _):

        async def scenario():
            status, payload, _ = await router.dispatch("GET", "/v1/healthz")
            assert status == 200 and payload["fleet"]["workers"] == 2
            assert payload["fleet"]["shards"] == ["w0", "w1"]

        run(scenario(), router)

    empty = FleetRouter()

    async def no_workers():
        status, payload, headers = await empty.dispatch(
            "POST", "/v1/run", b"{}")
        assert status == 503
        assert "no live workers" in payload["error"]
        assert headers["Retry-After"] == "1"

    run(no_workers())


def test_unreachable_shard_answers_503():
    router = FleetRouter()
    # A worker whose socket nothing listens on.
    dead = BackgroundServer(CostSharingService())
    port = dead.start()
    dead.stop()
    router.attach(FleetWorker("w0", WorkerClient("127.0.0.1", port)))

    async def scenario():
        status, payload, _ = await router.dispatch(
            "POST", "/v1/run", _bodies(1)[0])
        assert status == 503
        assert "unreachable" in payload["error"]

    run(scenario())


async def _fake_worker(*, close_after_answer: bool = False):
    """A raw socket worker: answers ``GET`` with ``200 {}`` (closing the
    connection afterwards if ``close_after_answer``, without saying so)
    and never answers a ``POST``.  Returns ``(port, heads, stop)``:
    the request heads received, per accepted connection, and a
    coroutine that ends every handler once the client has closed."""
    heads: list[list[bytes]] = []
    release = asyncio.Event()
    handlers: set[asyncio.Task] = set()

    async def handle(reader, writer):
        handlers.add(asyncio.current_task())
        received: list[bytes] = []
        heads.append(received)
        try:
            while True:
                received.append(await reader.readuntil(b"\r\n\r\n"))
                if received[-1].startswith(b"POST"):
                    await release.wait()
                    return
                writer.write(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
                await writer.drain()
                if close_after_answer:
                    return
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(handle, "127.0.0.1", 0)

    async def stop() -> None:
        release.set()
        server.close()
        await asyncio.wait_for(asyncio.gather(*handlers), 5.0)
        await server.wait_closed()

    return server.sockets[0].getsockname()[1], heads, stop


def test_stale_pooled_connection_is_retried_on_a_fresh_one():
    async def scenario():
        port, heads, stop = await _fake_worker(close_after_answer=True)
        client = WorkerClient("127.0.0.1", port, timeout=5.0)
        try:
            first, _, _ = await client.request("GET", "/v1/healthz")
            assert len(client._idle) == 1  # pooled; the worker closed it
            await asyncio.sleep(0.05)
            second, _, body = await client.request("GET", "/v1/healthz")
        finally:
            await client.close()
            await stop()
        return first, second, body, heads

    first, second, body, heads = run(scenario())
    assert first == second == 200 and body == b"{}"
    # The stale connection answered nothing; a fresh one took the retry.
    assert [len(received) for received in heads] == [1, 1]


def test_timed_out_forward_is_not_retried_on_pooled_connections():
    timeout = 0.3

    async def scenario():
        port, heads, stop = await _fake_worker()
        router = FleetRouter()
        client = WorkerClient("127.0.0.1", port, timeout=timeout)
        router.attach(FleetWorker("w0", client))
        try:
            # Three concurrent answered GETs leave three pooled connections.
            await asyncio.gather(*(client.request("GET", "/v1/healthz")
                                   for _ in range(3)))
            assert len(client._idle) == 3
            started = time.perf_counter()
            status, payload, _ = await router.dispatch(
                "POST", "/v1/run", _bodies(1)[0])
            elapsed = time.perf_counter() - started
        finally:
            await client.close()
            await stop()
        posts = sum(head.startswith(b"POST")
                    for received in heads for head in received)
        return status, payload, elapsed, posts

    status, payload, elapsed, posts = run(scenario())
    assert status == 503 and "unreachable" in payload["error"]
    assert posts == 1  # the worker got it once: a timeout is not resent
    assert elapsed < 1.5 * timeout


# -- aggregation -------------------------------------------------------------
def test_stats_and_metrics_aggregate_across_shards():
    with fleet_router(3) as (router, services):

        async def scenario():
            for body in _bodies(12):
                status, _, _ = await router.dispatch("POST", "/v1/run", body)
                assert status == 200
            stats = (await router.dispatch("GET", "/v1/stats"))[1]
            metrics = (await router.dispatch("GET", "/metrics"))[1]
            return stats, metrics

        stats, metrics = run(scenario(), router)
        assert set(stats["shards"]) == {"w0", "w1", "w2"}
        # The aggregated store block is the exact sum of the shards'.
        for key in ("lookups", "hits", "misses"):
            assert stats["store"][key] == sum(
                shard["store"][key] for shard in stats["shards"].values())
        assert stats["store"]["lookups"] == 12
        # 12 runs + the /v1/stats request itself.
        assert stats["fleet"]["router"]["requests"] == 13
        assert stats["http"]["responses"].get("200", 0) >= 12
        # The merged exposition carries per-shard labels, sums to the
        # fleet-wide totals, and still parses as one document.
        parsed = parse_exposition(metrics)
        assert sample_total(parsed, "repro_store_lookups_total") == 12
        for shard in ("w0", "w1", "w2"):
            assert sample_total(parsed, "repro_http_requests_total",
                                {"shard": shard}) > 0
        # ... and the /metrics scrape makes 14 by the time it renders.
        assert sample_total(parsed, "repro_router_requests_total",
                            {"shard": "router"}) == 14
        assert metrics.count("# HELP repro_store_lookups_total") == 1


# -- resize ------------------------------------------------------------------
def test_drain_is_graceful_404_on_unknown_and_409_on_last():
    with fleet_router(2) as (router, _):

        async def scenario():
            status, payload, _ = await router.dispatch(
                "POST", "/v1/fleet/drain", b'{"shard": "nope"}')
            assert status == 404 and "no such shard" in payload["error"]
            status, payload, _ = await router.dispatch(
                "POST", "/v1/fleet/drain", b'{"shard": "w1"}')
            assert status == 200 and payload["drained"] == "w1"
            status, payload, _ = await router.dispatch(
                "POST", "/v1/fleet/drain", b'{"shard": "w0"}')
            assert status == 409 and "last live shard" in payload["error"]
            status, payload, _ = await router.dispatch(
                "POST", "/v1/fleet/drain", b"{}")
            assert status == 400
            # Requests keep landing on the survivor.
            status, _, headers = await router.dispatch(
                "POST", "/v1/run", _bodies(1)[0])
            assert status == 200 and headers["X-Repro-Shard"] == "w0"

        run(scenario(), router)


def test_drain_under_load_loses_zero_requests():
    """The fleet-smoke property: removing a shard mid-burst reroutes its
    keys without a single failed request."""
    with fleet_router(3) as (router, _):
        server = BackgroundServer(router)
        port = server.start()
        try:
            statuses: list[int] = []
            lock = threading.Lock()
            bodies = []
            schedule = build_keyed_requests(
                requests=48, keys=8, zipf=1.1, n=6, alpha=2.0, side=10.0,
                layouts=["uniform"], mechanisms=["tree-shapley"],
                profile_count=1)
            for request in schedule:
                bodies.append(json.dumps(request, sort_keys=True)
                              .encode("utf-8"))

            def client(worker_bodies):
                connection = http.client.HTTPConnection(
                    "127.0.0.1", port, timeout=60)
                for body in worker_bodies:
                    connection.request(
                        "POST", "/v1/run", body=body,
                        headers={"Content-Type": "application/json"})
                    response = connection.getresponse()
                    response.read()
                    with lock:
                        statuses.append(response.status)
                connection.close()

            threads = [threading.Thread(target=client, args=(bodies[i::4],))
                       for i in range(4)]
            for thread in threads:
                thread.start()
            # Mid-burst, drain one shard over the admin endpoint.
            time.sleep(0.02)
            admin = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
            admin.request("POST", "/v1/fleet/drain",
                          body=b'{"shard": "w1"}',
                          headers={"Content-Type": "application/json"})
            drain_response = admin.getresponse()
            drain_body = json.loads(drain_response.read())
            admin.close()
            for thread in threads:
                thread.join(timeout=60)
            assert drain_response.status == 200, drain_body
            assert statuses == [200] * len(bodies)  # zero lost requests
        finally:
            server.stop()


# -- keyed loadgen -----------------------------------------------------------
def test_keyed_schedule_is_deterministic_and_zipf_skewed():
    kwargs = dict(requests=64, keys=8, n=6, alpha=2.0, side=10.0,
                  layouts=["uniform"], mechanisms=["tree-shapley"],
                  profile_count=1)
    first = build_keyed_requests(zipf=1.5, **kwargs)
    second = build_keyed_requests(zipf=1.5, **kwargs)
    assert first == second  # byte-identical schedules
    counts: dict[str, int] = {}
    for request in first:
        key = json.dumps(request["scenario"], sort_keys=True)
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) <= 8
    # Zipf head dominates the tail.
    ordered = sorted(counts.values(), reverse=True)
    assert ordered[0] >= 3 * ordered[-1]
    # Distinct keys means distinct derived seeds.
    seeds = {request["scenario"]["seed"] for request in first}
    assert len(seeds) == len(counts)
    # The keyed path hangs off build_requests behind the keys flag and
    # ignores --seeds entirely.
    via_flag = build_requests(seeds=[999], zipf=1.5, **kwargs)
    assert via_flag == first
    with pytest.raises(ValueError):
        build_keyed_requests(zipf=-1.0, **kwargs)
    with pytest.raises(ValueError):
        build_keyed_requests(**{**kwargs, "keys": 0}, zipf=1.0)


def test_loadgen_reports_per_shard_latency_against_a_router():
    with fleet_router(2) as (router, _):
        server = BackgroundServer(router)
        port = server.start()
        try:
            report = run_loadgen(
                host="127.0.0.1", port=port, requests=24, concurrency=4,
                n=6, alpha=2.0, side=10.0, seeds=[0], layouts=["uniform"],
                mechanisms=["tree-shapley"], profile_count=1,
                keys=6, zipf=1.1)
        finally:
            server.stop()
    assert report.statuses == {200: 24}
    assert len(report.observed_shards()) == 2
    assert report.check(expect_shards=2) == []
    assert report.check(expect_shards=3)  # more shards than exist: fails
    shard_lines = report.shard_lines()
    assert len(shard_lines) == 2
    assert all("hit-rate" in line for line in shard_lines)
    assert sum(len(v) for v in report.shard_latencies.values()) == 24


# -- the real subprocess tree ------------------------------------------------
def test_fleet_cli_serves_workers_behind_one_router():
    """``python -m repro fleet`` end to end: the CI smoke shape."""
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(REPO_SRC) + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else str(REPO_SRC))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "fleet", "--port", "0",
         "--workers", "2"],
        stdout=subprocess.PIPE, text=True, env=env)
    try:
        port = None
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            line = process.stdout.readline()
            match = re.search(r"serving on http://[^:]+:(\d+)", line or "")
            if match:
                port = int(match.group(1))
                break
        assert port is not None, "fleet router never printed its ready line"
        report = run_loadgen(
            host="127.0.0.1", port=port, requests=20, concurrency=4,
            n=6, alpha=2.0, side=10.0, seeds=[0], layouts=["uniform"],
            mechanisms=["tree-shapley"], profile_count=1, keys=6, zipf=1.1)
        assert report.statuses == {200: 20}
        assert report.check(expect_shards=2) == []
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        try:
            connection.request("GET", "/v1/fleet")
            topology = json.loads(connection.getresponse().read())
        finally:
            connection.close()
        worker_ports = [worker["port"] for worker in topology["workers"]]
        assert len(worker_ports) == 2
    finally:
        process.terminate()
        process.wait(timeout=30)
        process.stdout.close()
    # SIGTERM unwinds the router like Ctrl-C: it terminates its workers
    # before exiting, so none is left orphaned still holding its port.
    for worker_port in worker_ports:
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(("127.0.0.1", worker_port), timeout=5)
