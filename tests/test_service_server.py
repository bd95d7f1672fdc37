"""Service endpoints and failure paths, through both transports.

The in-process :class:`ServiceClient` calls the exact ``dispatch`` the
HTTP layer calls, so most contracts are pinned there; one test drives
the real asyncio HTTP server over a socket to cover the wire parsing,
keep-alive and header behaviour.
"""

from __future__ import annotations

import asyncio
import io
import json
import time

import pytest

from repro.api import MulticastSession, ScenarioSpec, available_mechanisms, result_to_dict
from repro.dynamic import ChurnSpec, DynamicScenarioSpec
from repro.observability import RequestLogger
from repro.service import CostSharingService, ServiceClient, ServiceServer
from repro.service.batching import MicroBatcher
from repro.service.server import MAX_HEADERS


def _spec(seed: int, n: int = 6) -> ScenarioSpec:
    return ScenarioSpec.from_random(n=n, alpha=2.0, seed=seed, side=5.0)


def _profiles(spec, utility=4.0):
    return [{a: utility for a in spec.agents()}]


def _client(**kwargs) -> ServiceClient:
    return ServiceClient(CostSharingService(**kwargs))


def run(coro):
    return asyncio.run(coro)


# -- happy paths -------------------------------------------------------------
def test_healthz_and_stats_shapes():
    async def go():
        client = _client()
        status, health = await client.healthz()
        assert status == 200 and health["status"] == "ok"
        status, stats = await client.stats()
        assert status == 200
        assert set(stats) == {"schema", "store", "batcher", "http", "metrics",
                              "spans"}
        assert stats["http"]["queue_limit"] == client.service.queue_limit
    run(go())


def test_run_endpoint_matches_direct_session_and_warms():
    spec = _spec(0)
    profiles = _profiles(spec)

    async def go():
        client = _client()
        status, cold = await client.run(spec, "jv", profiles)
        assert status == 200
        status, warm = await client.run(spec, "jv", profiles)
        assert status == 200
        return client, cold, warm

    client, cold, warm = run(go())
    direct = [result_to_dict(r)
              for r in MulticastSession(spec).run_batch("jv", profiles)]
    assert cold["results"] == warm["results"] == direct
    assert cold["scenario"] == spec.to_dict()
    assert cold["mechanism"] == {"name": "jv", "params": {}}
    assert client.service.store.stats()["hits"] == 1


def test_mechanism_params_forms_are_equivalent():
    spec = _spec(1)
    profiles = _profiles(spec)

    async def go():
        client = _client()
        _, inline = await client.run(spec, {"name": "tree-shapley",
                                            "params": {"tree": "mst"}}, profiles)
        _, split = await client.run(spec, "tree-shapley", profiles,
                                    params={"tree": "mst"})
        return inline, split

    inline, split = run(go())
    assert inline["results"] == split["results"]
    assert inline["mechanism"] == split["mechanism"]


def test_batch_endpoint_mixes_statuses_per_request():
    spec = _spec(2)
    good = {"scenario": spec.to_dict(), "mechanism": "tree-shapley",
            "profiles": [{str(a): 3.0 for a in spec.agents()}]}
    # Parses fine; fails only when the mechanism validates the profile.
    runtime_bad = {**good,
                   "profiles": [{str(a): 3.0 for a in spec.agents()} | {"99": 1.0}]}

    async def go():
        client = _client()
        status, payload = await client.batch([good, runtime_bad, good])
        return status, payload

    status, payload = run(go())
    assert status == 200 and payload["count"] == 3
    codes = [entry["status"] for entry in payload["responses"]]
    assert codes == [200, 400, 200]
    assert "99" in payload["responses"][1]["body"]["error"]
    assert (payload["responses"][0]["body"]["results"]
            == payload["responses"][2]["body"]["results"])


def test_batch_server_fault_logs_no_item_as_served(monkeypatch):
    # Item 1 hits a server fault: the batch answers 500 as a whole, so no
    # item may have been logged as a served 200 on the way.
    run_one = MicroBatcher._run_one

    def faulty(entry, request):
        if 5.0 in request.profiles[0].values():
            raise RuntimeError("boom")
        return run_one(entry, request)

    monkeypatch.setattr(MicroBatcher, "_run_one", staticmethod(faulty))
    spec = _spec(2)
    stream = io.StringIO()
    client = _client(request_log=RequestLogger(stream))
    items = [{"scenario": spec.to_dict(), "mechanism": "tree-shapley",
              "profiles": [{str(a): utility for a in spec.agents()}]}
             for utility in (4.0, 5.0)]
    status, payload = run(client.batch(items))
    assert status == 500 and "RuntimeError: boom" in payload["error"]
    lines = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert [(line["kind"], line["status"]) for line in lines] == [("error", 500)]


def test_dynamic_scenario_runs_an_epoch():
    spec = DynamicScenarioSpec(
        kind="random", n=6, alpha=2.0, seed=3,
        churn=ChurnSpec(epochs=3, seed=1, join_rate=0.4, leave_rate=0.2))
    profiles = [{a: 5.0 for a in spec.agents()}]

    async def go():
        client = _client()
        status, payload = await client.run(spec, "tree-shapley", profiles, epoch=1)
        return status, payload

    status, payload = run(go())
    assert status == 200 and payload["epoch"] == 1
    cold = MulticastSession(spec.materialize(1)).run_batch("tree-shapley", profiles)
    assert payload["results"] == [result_to_dict(r) for r in cold]


# -- failure paths -----------------------------------------------------------
def test_malformed_json_body_is_400():
    async def go():
        client = _client()
        status, payload = await client.request("POST", "/v1/run", body=b"{nope]")
        assert status == 400 and "malformed JSON body" in payload["error"]
        status, payload = await client.request("POST", "/v1/run", body=b"\xff\xfe")
        assert status == 400 and "UTF-8" in payload["error"]
        status, payload = await client.request("POST", "/v1/run",
                                               body=b'["not", "an", "object"]')
        assert status == 400 and "JSON object" in payload["error"]
    run(go())


def test_unknown_mechanism_is_400_listing_available():
    spec = _spec(4)

    async def go():
        client = _client()
        status, payload = await client.run(spec, "definitely-not-a-mechanism",
                                           _profiles(spec))
        return status, payload

    status, payload = run(go())
    assert status == 400
    # Mirrors the CLI's exit-2 contract: the message enumerates the registry.
    for name in available_mechanisms():
        assert name in payload["error"]


def test_bad_requests_are_400_with_reasons():
    spec = _spec(5)
    base = {"scenario": spec.to_dict(), "mechanism": "jv",
            "profiles": [{str(a): 1.0 for a in spec.agents()}]}
    cases = [
        ({**base, "surprise": 1}, "unknown request fields"),
        ({k: v for k, v in base.items() if k != "scenario"}, "missing"),
        ({**base, "scenario": {"kind": "nope"}}, "invalid scenario"),
        ({**base, "mechanism": 7}, "'mechanism' must be"),
        ({**base, "profiles": []}, "at least one profile"),
        ({**base, "profiles": [{"x": "y"}]}, "numeric"),
        ({**base, "epoch": 0}, "only applies to churn"),
        ({**base, "mechanism": {"name": "jv"}, "params": {}}, "not both"),
    ]

    async def go():
        client = _client()
        for payload, needle in cases:
            status, out = await client.request("POST", "/v1/run", payload)
            assert status == 400, (payload, out)
            assert needle in out["error"], (needle, out["error"])
    run(go())


def test_dynamic_epoch_out_of_range_is_400():
    spec = DynamicScenarioSpec(
        kind="random", n=6, alpha=2.0, seed=3,
        churn=ChurnSpec(epochs=2, seed=1, join_rate=0.4, leave_rate=0.2))

    async def go():
        client = _client()
        status, payload = await client.run(spec, "jv", [{a: 1.0 for a in spec.agents()}],
                                           epoch=5)
        assert status == 400 and "out of range" in payload["error"]
    run(go())


def test_batch_larger_than_queue_limit_is_413_not_eternal_429():
    spec = _spec(6)
    one = {"scenario": spec.to_dict(), "mechanism": "jv",
           "profiles": [{str(a): 1.0 for a in spec.agents()}]}

    async def go():
        # max_batch_requests (default 64) clamps to queue_limit: an
        # 8-request batch on an idle 4-slot server must be rejected as
        # permanently oversized (413), never as retryable congestion (429).
        client = _client(queue_limit=4)
        assert client.service.max_batch_requests == 4
        status, payload = await client.batch([one] * 8)
        assert status == 413 and "exceeds the limit of 4" in payload["error"]
        status, _ = await client.batch([one] * 4)
        assert status == 200
    run(go())


def test_unexpected_dispatch_exception_is_a_counted_500(monkeypatch):
    async def go():
        client = _client()

        def explode(_data):
            raise RuntimeError("wires crossed")

        from repro.service import server as server_module
        monkeypatch.setattr(server_module, "parse_run_request", explode)
        status, payload = await client.run(_spec(6), "jv", _profiles(_spec(6)))
        assert status == 500
        assert "internal error" in payload["error"]
        assert "wires crossed" in payload["error"]
        assert client.service.stats_payload()["http"]["responses"]["500"] == 1
    run(go())


def test_oversized_batch_is_413():
    spec = _spec(6)
    one = {"scenario": spec.to_dict(), "mechanism": "jv",
           "profiles": [{str(a): 1.0 for a in spec.agents()}]}

    async def go():
        client = _client(max_batch_requests=3)
        status, payload = await client.batch([one] * 4)
        assert status == 413 and "exceeds the limit of 3" in payload["error"]
        status, _ = await client.batch([one] * 3)
        assert status == 200
    run(go())


def test_full_queue_backpressure_is_429_with_retry_after():
    spec = _spec(7)

    async def go():
        # Admitted requests stay in flight until the loop runs their
        # flush, which this coroutine does not yield to before the 429.
        service = CostSharingService(queue_limit=2,
                                     retry_after=0.25)
        client = ServiceClient(service)
        pending = [asyncio.ensure_future(client.run(spec, "jv", _profiles(spec)))
                   for _ in range(2)]
        await asyncio.sleep(0)  # let both pass admission
        status, payload, headers = await service.dispatch(
            "POST", "/v1/run", json.dumps({
                "scenario": spec.to_dict(), "mechanism": "jv",
                "profiles": [{str(a): 1.0 for a in spec.agents()}],
            }).encode())
        assert status == 429
        assert "queue full" in payload["error"]
        assert headers.get("Retry-After") == "0.25"
        assert service.stats_payload()["http"]["rejected"] == 1
        await service.batcher.drain()
        results = await asyncio.gather(*pending)
        assert all(s == 200 for s, _ in results)
        # Capacity released: the same request is admitted again now.
        status, _ = await client.run(spec, "jv", _profiles(spec))
        assert status == 200
    run(go())


def test_unknown_path_and_method_mismatches():
    async def go():
        client = _client()
        status, payload = await client.request("GET", "/v1/nope")
        assert status == 404 and "/v1/run" in payload["error"]
        status, _ = await client.request("POST", "/v1/healthz")
        assert status == 405
        status, _ = await client.request("GET", "/v1/run")
        assert status == 405
    run(go())


def test_lru_eviction_mid_flight_under_load():
    """A cache of 1 scenario thrashed by alternating requests still
    answers every request bit-identically to cold sessions."""
    specs = [_spec(8), _spec(9)]
    expected = {}
    for spec in specs:
        expected[spec.seed] = [
            result_to_dict(r)
            for r in MulticastSession(spec).run_batch("tree-shapley", _profiles(spec))]

    async def go():
        client = _client(cache_size=1)
        for _ in range(3):
            outs = await asyncio.gather(*(
                client.run(spec, "tree-shapley", _profiles(spec)) for spec in specs))
            for spec, (status, payload) in zip(specs, outs):
                assert status == 200
                assert payload["results"] == expected[spec.seed]
        return client.service.store.stats()

    stats = run(go())
    assert stats["evictions"] >= 1  # the thrash actually happened
    assert stats["size"] <= 1


# -- the real HTTP layer -----------------------------------------------------
async def _raw_http(port: int, method: str, path: str, body: bytes = b"",
                    extra: str = "") -> tuple[int, dict, dict]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        request = (f"{method} {path} HTTP/1.1\r\nHost: t\r\n"
                   f"Content-Length: {len(body)}\r\n{extra}\r\n")
        writer.write(request.encode("latin-1") + body)
        await writer.drain()
        return await _read_response(reader)
    finally:
        writer.close()


async def _read_response(reader) -> tuple[int, dict, dict]:
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    payload = json.loads(await reader.readexactly(int(headers["content-length"])))
    return status, payload, headers


def test_http_server_round_trip_keep_alive_and_errors():
    spec = _spec(10)
    body = json.dumps({
        "scenario": spec.to_dict(), "mechanism": "tree-shapley",
        "profiles": [{str(a): 4.0 for a in spec.agents()}],
    }).encode()
    direct = [result_to_dict(r)
              for r in MulticastSession(spec).run_batch("tree-shapley",
                                                        _profiles(spec))]

    async def go():
        service = CostSharingService(max_body=1 << 16)
        server = await ServiceServer(service, port=0).start()
        try:
            status, health, _ = await _raw_http(server.port, "GET", "/v1/healthz")
            assert status == 200 and health["status"] == "ok"

            status, payload, _ = await _raw_http(server.port, "POST", "/v1/run", body)
            assert status == 200 and payload["results"] == direct

            # Keep-alive: two requests on one connection.
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                for _ in range(2):
                    writer.write((f"POST /v1/run HTTP/1.1\r\nHost: t\r\n"
                                  f"Content-Length: {len(body)}\r\n\r\n").encode()
                                 + body)
                    await writer.drain()
                    status, payload, headers = await _read_response(reader)
                    assert status == 200 and payload["results"] == direct
                    assert headers["connection"] == "keep-alive"
            finally:
                writer.close()

            # Wire-level failure paths.
            status, payload, _ = await _raw_http(server.port, "POST", "/v1/run",
                                                 b"{broken")
            assert status == 400 and "malformed JSON" in payload["error"]

            status, payload, _ = await _raw_http(
                server.port, "POST", "/v1/run", b"x" * ((1 << 16) + 1))
            assert status == 413 and "exceeds" in payload["error"]

            status, _, _ = await _raw_http(server.port, "GET", "/other")
            assert status == 404

            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(b"BOGUS\r\n\r\n")
                await writer.drain()
                status, payload, _ = await _read_response(reader)
                assert status == 400 and "request line" in payload["error"]
            finally:
                writer.close()

            # A request line overrunning the StreamReader limit must not
            # kill the connection silently — the client gets a 400.
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            try:
                writer.write(b"GET /" + b"x" * (1 << 17) + b" HTTP/1.1\r\n\r\n")
                await writer.drain()
                status, payload, _ = await _read_response(reader)
                assert status == 400 and "unreadable" in payload["error"]
            finally:
                writer.close()
        finally:
            await server.close()

    run(go())


async def _exchange(port: int, raw: bytes) -> tuple[tuple[int, dict, dict], bytes]:
    """Send ``raw`` on a fresh connection; returns the parsed response and
    whatever the server sent after it (``b""`` once it hung up)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(raw)
        await writer.drain()
        response = await _read_response(reader)
        return response, await reader.read()
    finally:
        writer.close()


def test_http_header_lines_beyond_the_cap_are_431():
    async def go():
        server = await ServiceServer(CostSharingService(),
                                     port=0).start()
        try:
            # One line over the cap, and the header block never ends: the
            # server stops reading, answers 431 and hangs up.
            flood = b"".join(b"X-Filler-%d: %d\r\n" % (i, i)
                             for i in range(MAX_HEADERS + 1))
            (status, payload, headers), rest = await _exchange(
                server.port, b"GET /v1/healthz HTTP/1.1\r\n" + flood)
            assert status == 431 and str(MAX_HEADERS) in payload["error"]
            assert headers["connection"] == "close" and rest == b""
            # Exactly MAX_HEADERS lines (Host and Content-Length included)
            # are still served.
            filler = "".join(f"X-Filler-{i}: {i}\r\n"
                             for i in range(MAX_HEADERS - 2))
            status, health, _ = await _raw_http(server.port, "GET",
                                                "/v1/healthz", extra=filler)
            assert status == 200 and health["status"] == "ok"
        finally:
            await server.close()

    run(go())


def test_http_negative_content_length_is_400():
    async def go():
        server = await ServiceServer(CostSharingService(),
                                     port=0).start()
        try:
            for length in (b"-5", b"five"):
                (status, payload, headers), rest = await _exchange(
                    server.port, b"POST /v1/run HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: " + length + b"\r\n\r\n")
                assert status == 400, length
                assert payload["error"] == "invalid Content-Length"
                assert headers["connection"] == "close" and rest == b""
        finally:
            await server.close()

    run(go())


def test_http_transfer_encoding_is_501_and_closes():
    # Only Content-Length framing is read: a chunked body left unread
    # would be parsed as a second request on the kept-alive connection.
    async def go():
        server = await ServiceServer(CostSharingService(),
                                     port=0).start()
        try:
            chunk = b'{"requests": []}'
            (status, payload, headers), rest = await _exchange(
                server.port, b"POST /v1/batch HTTP/1.1\r\nHost: t\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                + b"%x\r\n%s\r\n0\r\n\r\n" % (len(chunk), chunk))
            assert status == 501 and "Transfer-Encoding" in payload["error"]
            assert headers["connection"] == "close" and rest == b""
        finally:
            await server.close()

    run(go())


@pytest.mark.parametrize("lengths", [(2, 40), (40, 2)])
def test_http_conflicting_content_lengths_are_400_and_close(lengths):
    async def go():
        server = await ServiceServer(CostSharingService(),
                                     port=0).start()
        try:
            body = b"{}" + b" " * 36 + b"\r\n"  # 40 bytes
            framing = b"".join(b"Content-Length: %d\r\n" % n for n in lengths)
            (status, payload, headers), rest = await _exchange(
                server.port, b"POST /v1/run HTTP/1.1\r\nHost: t\r\n"
                + framing + b"\r\n" + body)
            assert status == 400
            assert payload["error"] == "conflicting Content-Length headers"
            assert headers["connection"] == "close" and rest == b""
        finally:
            await server.close()

    run(go())


@pytest.mark.parametrize("stop", ["close", "cancel serve_forever, then close"])
def test_stop_does_not_wait_for_idle_keep_alive_clients(stop):
    # From Python 3.12.1 asyncio's Server waits for open client
    # connections when it closes, so the handlers must be cancelled first.
    async def go():
        server = await ServiceServer(CostSharingService(),
                                     port=0, read_timeout=5.0).start()
        serving = asyncio.ensure_future(server.serve_forever())
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        try:
            writer.write(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
            await writer.drain()
            status, _, headers = await _read_response(reader)
            assert status == 200 and headers["connection"] == "keep-alive"
            t0 = time.perf_counter()
            if stop != "close":
                serving.cancel()
                await asyncio.gather(serving, return_exceptions=True)
            await server.close()  # the client is still connected, idle
            assert time.perf_counter() - t0 < 1.0
        finally:
            serving.cancel()
            writer.close()

    run(go())


def test_cancel_in_wait_closed_never_reaches_the_loop_exception_handler(
        monkeypatch):
    # A handler task that ends cancelled makes the stream protocol's
    # done-callback raise into the loop's exception handler (Python 3.11).
    async def go():
        entered = asyncio.Event()

        async def stuck_wait_closed(writer):
            entered.set()
            await asyncio.Event().wait()  # only a cancel gets out

        monkeypatch.setattr(asyncio.StreamWriter, "wait_closed",
                            stuck_wait_closed)
        reported = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: reported.append(context))
        server = await ServiceServer(CostSharingService(),
                                     port=0).start()
        try:
            _, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.close()  # EOF: the handler closes its side and waits
            await asyncio.wait_for(entered.wait(), 5.0)
            (handler,) = server._connections
            handler.cancel()
            await asyncio.gather(handler, return_exceptions=True)
            await asyncio.sleep(0)
        finally:
            await server.close()
        assert reported == []

    run(go())
