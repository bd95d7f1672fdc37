"""Horizontal sharding: a consistent-hash router over a worker fleet.

One asyncio process tops out at one core's worth of dispatch; the fleet
layer scales the service sideways without giving up the warm-session
story.  Three pieces:

* :func:`spawn_worker` / :class:`FleetWorker` — a **worker** is the
  existing single-process service, unchanged, in its own OS process
  (``python -m repro serve --port 0 --shard wK``): its own
  :class:`~repro.service.state.SessionStore`, micro-batcher, thread
  pool and :class:`~repro.observability.MetricsRegistry` — shared
  nothing with its siblings.
* :class:`FleetRouter` — the **router** speaks the existing HTTP wire
  protocol on both sides.  ``POST /v1/run`` / ``POST /v1/batch`` bodies
  are routed on the scenario wire key (the same canonical JSON the LRU
  session store keys on) through a
  :class:`~repro.service.ring.HashRing`, so each scenario's warm session
  lives on exactly one shard; responses are the worker's bytes,
  bit-identical to the single-process service.  Worker ``429`` +
  ``Retry-After`` backpressure is forwarded per shard; ``GET /v1/stats``
  aggregates worker snapshots (plus a ``"shards"`` breakdown and the
  router's own counters) and ``GET /metrics`` merges worker expositions
  under per-shard ``shard="wK"`` labels.  ``/v1/fleet`` is the admin
  surface: topology (GET), ``/v1/fleet/add`` (POST, spawn a shard) and
  ``/v1/fleet/drain`` (POST ``{"shard": "wK"}``, graceful removal).
* :class:`Fleet` — the supervisor: boots N workers in parallel, owns
  their processes, and tears them down.

**Resize semantics.**  Adding a shard inserts its virtual nodes into the
ring — only the key ranges adjacent to those nodes move (an expected
``1/(N+1)`` of the key space), everyone else keeps their warm sessions.
Draining a shard removes it from the ring *first* (new requests reroute
immediately), waits for the shard's in-flight requests to finish, then
terminates the process — a mid-burst drain loses zero requests, which
the CI ``fleet-smoke`` job asserts.

Responses the router crafts itself (admin endpoints, ``503`` when a
shard is unreachable) use the shared protocol error payloads; everything
priced comes from a worker byte-for-byte.  The ``X-Repro-Shard``
response header names the shard(s) that answered — how ``loadgen``
attributes per-shard latency without touching response bodies.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys
import threading

from repro.observability import (
    NULL_SPAN_RECORDER,
    MetricsRegistry,
    SpanRecorder,
    merge_expositions,
    relabel_exposition,
)
from repro.service.protocol import (
    PROTOCOL_SCHEMA,
    TRACE_ID_HEADER,
    TRACEPARENT_HEADER,
    ProtocolError,
    error_payload,
    parse_batch_request,
    parse_body,
)
from repro.service.ring import DEFAULT_REPLICAS, HashRing
from repro.service.server import METRICS_CONTENT_TYPE, counter_total, status_counts

READY_LINE = re.compile(r"serving on http://([^:\s]+):(\d+)")

# Headers the router copies from a worker response onto its own: the
# backpressure contract (Retry-After), method negotiation (Allow), the
# body's own type, and the worker's trace id (so a traced worker behind
# an untraced router still reaches the client; a traced router
# overwrites it with its own — the same trace, stamped on the forward).
_FORWARDED_HEADERS = {"retry-after": "Retry-After", "allow": "Allow",
                      "content-type": "Content-Type",
                      "x-repro-trace-id": TRACE_ID_HEADER}

_KNOWN_PATHS = ("/v1/run", "/v1/batch", "/v1/healthz", "/v1/stats",
                "/metrics", "/v1/fleet", "/v1/fleet/add", "/v1/fleet/drain")


def scenario_route_key(body: bytes) -> str:
    """The routing key of a ``/v1/run`` body: its scenario object in
    canonical JSON (``sort_keys``, default separators) — textually equal
    to ``ScenarioSpec.to_json()`` for every client that sends
    ``spec.to_dict()`` wire forms, i.e. the same key the worker's LRU
    store uses, so warm affinity survives the router hop.  Multi-group
    requests append their ``group`` (matching
    :attr:`RunRequest.route_key`), so one trace's groups spread over the
    fleet while each worker's ``MultiGroupSession`` lazily builds only
    the groups it is routed.  Undecodable bodies route on their digest:
    still deterministic, and the chosen worker answers the same 400 the
    single-process service would."""
    try:
        data = json.loads(body)
    except ValueError:
        data = None
    if isinstance(data, dict) and isinstance(data.get("scenario"), dict):
        try:
            key = json.dumps(data["scenario"], sort_keys=True)
        except (TypeError, ValueError):
            key = None
        if key is not None:
            group = data.get("group")
            if isinstance(group, str):
                return f"{key}|group={group}"
            return key
    return "opaque|" + hashlib.sha256(body).hexdigest()


class WorkerClient:
    """Minimal asyncio HTTP/1.1 client with keep-alive pooling — the
    router's side of the wire to one worker."""

    def __init__(self, host: str, port: int, *, timeout: float = 300.0,
                 pool_size: int = 16) -> None:
        self.host = host
        self.port = int(port)
        self.timeout = float(timeout)
        self.pool_size = int(pool_size)
        self._idle: list[tuple[asyncio.StreamReader, asyncio.StreamWriter]] = []

    async def request(self, method: str, path: str, body: bytes = b"", *,
                      headers: dict[str, str] | None = None
                      ) -> tuple[int, dict[str, str], bytes]:
        """One round trip: ``(status, lowercase headers, body bytes)``.
        ``headers`` adds extra request headers (the router stamps the
        span-context ``traceparent`` this way).  A stale keep-alive
        connection (closed by the worker between requests) is retried
        once on a fresh socket."""
        while self._idle:
            connection = self._idle.pop()
            try:
                return await asyncio.wait_for(
                    self._roundtrip(connection, method, path, body, headers),
                    self.timeout)
            except (ConnectionError, asyncio.IncompleteReadError, OSError):
                self._close_connection(connection)
                # Reused socket went stale; try the next idle one, then
                # fall through to a fresh connection.
        connection = await asyncio.wait_for(
            asyncio.open_connection(self.host, self.port), self.timeout)
        try:
            return await asyncio.wait_for(
                self._roundtrip(connection, method, path, body, headers),
                self.timeout)
        except BaseException:
            self._close_connection(connection)
            raise

    async def _roundtrip(self, connection, method: str, path: str,
                         body: bytes, headers: dict[str, str] | None = None
                         ) -> tuple[int, dict[str, str], bytes]:
        reader, writer = connection
        extra = "".join(f"{name}: {value}\r\n"
                        for name, value in (headers or {}).items())
        head = (f"{method} {path} HTTP/1.1\r\n"
                f"Host: {self.host}:{self.port}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
                + extra +
                "Connection: keep-alive\r\n\r\n")
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

        status_line = await reader.readline()
        if not status_line:
            raise ConnectionError("worker closed the connection")
        parts = status_line.decode("latin-1").split(None, 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise ConnectionError(f"malformed status line {status_line!r}")
        status = int(parts[1])

        headers: dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        payload = await reader.readexactly(length) if length else b""

        if (headers.get("connection", "").lower() != "close"
                and len(self._idle) < self.pool_size):
            self._idle.append(connection)
        else:
            self._close_connection(connection)
        return status, headers, payload

    @staticmethod
    def _close_connection(connection) -> None:
        _, writer = connection
        try:
            writer.close()
        except Exception:  # pragma: no cover - teardown best-effort
            pass

    def close(self) -> None:
        """Drop every pooled connection (safe from any thread)."""
        while self._idle:
            self._close_connection(self._idle.pop())


def spawn_worker(shard: str, *, host: str = "127.0.0.1",
                 serve_args: tuple[str, ...] = (),
                 startup_timeout: float = 120.0) -> tuple[subprocess.Popen, int]:
    """Start ``python -m repro serve --port 0 --shard <shard>`` and wait
    for its ready line; returns ``(process, bound_port)``.  The spawned
    worker inherits the environment plus this package's source root on
    ``PYTHONPATH`` (so fleets work both installed and from a checkout);
    its stderr stays attached for CI-visible diagnostics."""
    import queue

    env = dict(os.environ)
    src_root = str(pathlib.Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = (src_root + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src_root)
    command = [sys.executable, "-m", "repro", "serve", "--host", host,
               "--port", "0", "--shard", shard, *serve_args]
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               env=env, text=True)

    ready: queue.Queue = queue.Queue()

    def pump(stream, out) -> None:
        # Scrape the ready line, then keep the pipe drained so the
        # worker can never block on a full stdout buffer.
        for line in stream:
            if out is not None:
                match = READY_LINE.search(line)
                if match:
                    out.put(int(match.group(2)))
                    out = None
        if out is not None:
            out.put(None)  # EOF before ready: the worker died

    threading.Thread(target=pump, args=(process.stdout, ready),
                     daemon=True, name=f"repro-fleet-{shard}-stdout").start()
    try:
        port = ready.get(timeout=startup_timeout)
    except queue.Empty:
        port = None
    if port is None:
        process.terminate()
        process.wait(timeout=10)
        raise RuntimeError(
            f"worker {shard!r} never printed its ready line "
            f"(command: {' '.join(command)})")
    return process, port


class FleetWorker:
    """One shard as the router sees it: its client, its process handle
    (``None`` for externally managed workers), and in-flight accounting
    for graceful drain."""

    def __init__(self, shard: str, client: WorkerClient,
                 process: subprocess.Popen | None = None) -> None:
        self.shard = str(shard)
        self.client = client
        self.process = process
        self.inflight = 0
        self.forwarded = 0
        self.removed = False
        self._idle = asyncio.Event()
        self._idle.set()

    def _begin(self) -> None:
        self.inflight += 1
        self.forwarded += 1
        self._idle.clear()

    def _end(self) -> None:
        self.inflight -= 1
        if self.inflight == 0:
            self._idle.set()

    async def wait_idle(self, timeout: float) -> None:
        await asyncio.wait_for(self._idle.wait(), timeout)

    def terminate(self, timeout: float = 10.0) -> None:
        """Stop the worker process (blocking; run off the event loop)."""
        self.client.close()
        if self.process is None:
            return
        self.process.terminate()
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover - stuck worker
            self.process.kill()
            self.process.wait(timeout=timeout)

    def describe(self) -> dict:
        return {"shard": self.shard, "host": self.client.host,
                "port": self.client.port, "in_flight": self.inflight,
                "forwarded": self.forwarded, "draining": self.removed}


class FleetRouter:
    """The consistent-hash front end over the worker fleet.

    Duck-types the service object :class:`~repro.service.server.ServiceServer`
    expects (``dispatch`` / ``max_body`` / ``drain``), so the existing
    HTTP layer — keep-alive, bounded bodies, response formatting — serves
    the router unchanged, and clients cannot tell a fleet from a single
    process (priced responses are the worker's bytes).
    """

    def __init__(self, *, replicas: int = DEFAULT_REPLICAS,
                 max_body: int = 8 << 20, max_batch_requests: int = 64,
                 registry: MetricsRegistry | None = None,
                 spawner=None, drain_timeout: float = 120.0,
                 spans=None) -> None:
        self.ring = HashRing(replicas=replicas)
        self.workers: dict[str, FleetWorker] = {}
        self.max_body = int(max_body)
        self.max_batch_requests = int(max_batch_requests)
        self.spawner = spawner  # () -> FleetWorker, blocking; executor-run
        self.drain_timeout = float(drain_timeout)
        self.registry = registry if registry is not None else MetricsRegistry()
        # Request-span recorder: the router opens the *root* span of a
        # priced request's trace and stamps its context onto every
        # forward (the traceparent header), so worker spans join the
        # same trace across the process boundary.
        self.spans = spans if spans is not None else NULL_SPAN_RECORDER
        self.spans.use_registry(self.registry)
        self._c_requests = self.registry.counter(
            "repro_router_requests_total", "Requests reaching the router",
            labels=("method", "path"))
        self._c_responses = self.registry.counter(
            "repro_router_responses_total", "Router responses by status code",
            labels=("code",))
        self._c_proxied = self.registry.counter(
            "repro_router_proxied_total", "Requests forwarded, by shard",
            labels=("shard",))
        self._c_proxy_errors = self.registry.counter(
            "repro_router_proxy_errors_total",
            "Forwards that failed at the transport (answered 503)")
        self._g_workers = self.registry.gauge(
            "repro_router_workers", "Live shards on the ring")

    # -- membership ----------------------------------------------------------
    def attach(self, worker: FleetWorker) -> None:
        """Join ``worker``: route its key range to it from now on."""
        if worker.shard in self.workers:
            raise ValueError(f"shard {worker.shard!r} already attached")
        self.workers[worker.shard] = worker
        self.ring.add(worker.shard)
        self._g_workers.set(len(self.live_workers()))

    def live_workers(self) -> list[FleetWorker]:
        return [w for w in self.workers.values() if not w.removed]

    def _live_worker(self, key: str) -> FleetWorker:
        for _ in range(len(self.workers) + 1):
            try:
                shard = self.ring.route(key)
            except LookupError:
                break
            worker = self.workers.get(shard)
            if worker is not None and not worker.removed:
                return worker
            if shard in self.ring:  # stale member: heal and re-route
                self.ring.remove(shard)
        raise ProtocolError("no live workers on the ring", status=503)

    async def drain_worker(self, shard: str, *,
                           timeout: float | None = None) -> dict:
        """Gracefully remove ``shard``: stop routing to it, let its
        in-flight requests finish, then terminate its process.  Zero
        requests are lost — the fleet-smoke CI job asserts exactly this
        mid-burst."""
        worker = self.workers.get(shard)
        if worker is None or worker.removed:
            raise ProtocolError(
                f"no such shard {shard!r} (live: {[w.shard for w in self.live_workers()]})",
                status=404)
        if len(self.live_workers()) <= 1:
            raise ProtocolError(
                f"cannot drain {shard!r}: it is the last live shard",
                status=409)
        worker.removed = True
        if shard in self.ring:
            self.ring.remove(shard)
        self._g_workers.set(len(self.live_workers()))
        await worker.wait_idle(self.drain_timeout if timeout is None else timeout)
        self.workers.pop(shard, None)
        await asyncio.get_running_loop().run_in_executor(None, worker.terminate)
        return {"schema": PROTOCOL_SCHEMA, "drained": shard,
                "workers": len(self.live_workers()),
                "forwarded": worker.forwarded}

    async def add_worker(self) -> dict:
        """Spawn and join one new shard (minimal-range rehash)."""
        if self.spawner is None:
            raise ProtocolError("this router has no spawner attached",
                                status=409)
        worker = await asyncio.get_running_loop().run_in_executor(
            None, self.spawner)
        self.attach(worker)
        return {"schema": PROTOCOL_SCHEMA, "added": worker.shard,
                "workers": len(self.live_workers())}

    # -- dispatch (the ServiceServer contract) -------------------------------
    async def dispatch(self, method: str, path: str, body: bytes = b"", *,
                       trace_context=None) -> tuple[int, dict | str, dict]:
        self._c_requests.labels(
            method=method,
            path=path if path in _KNOWN_PATHS else "other").inc()
        span = None
        if self.spans.enabled and path in ("/v1/run", "/v1/batch"):
            span = self.spans.span(
                "request", parent=trace_context,
                attributes={"method": method, "path": path,
                            "shard": "router"})
        try:
            status, payload, headers = await self._route(method, path, body,
                                                         span=span)
        except ProtocolError as exc:
            headers = {"Retry-After": "1"} if exc.status in (429, 503) else {}
            status, payload = exc.status, error_payload(exc.message)
        except Exception as exc:
            status, payload, headers = 500, error_payload(
                f"internal error: {type(exc).__name__}: {exc}"), {}
        if span is not None:
            span.set("status_code", status)
            span.finish(status="ok" if status < 500 else "error")
            headers = {**headers, TRACE_ID_HEADER: span.trace_id}
        self._c_responses.labels(code=str(status)).inc()
        return status, payload, headers

    async def _route(self, method: str, path: str, body: bytes,
                     span=None) -> tuple[int, dict | str, dict]:
        if path == "/v1/healthz" and method == "GET":
            return 200, await self.health_payload(), {}
        if path == "/v1/stats" and method == "GET":
            return 200, await self.stats_payload(), {}
        if path == "/metrics" and method == "GET":
            return 200, await self.metrics_text(), {
                "Content-Type": METRICS_CONTENT_TYPE}
        if path == "/v1/fleet":
            if method != "GET":
                return 405, error_payload("method not allowed (use GET)"), {
                    "Allow": "GET"}
            return 200, self.fleet_payload(), {}
        if path in ("/v1/fleet/add", "/v1/fleet/drain"):
            if method != "POST":
                return 405, error_payload("method not allowed (use POST)"), {
                    "Allow": "POST"}
            if path == "/v1/fleet/add":
                return 200, await self.add_worker(), {}
            data = parse_body(body)
            if not isinstance(data, dict) or not isinstance(
                    data.get("shard"), str):
                raise ProtocolError(
                    'drain body must be {"shard": "<shard id>"}')
            return 200, await self.drain_worker(data["shard"]), {}
        if path == "/v1/batch" and method == "POST":
            return await self._route_batch(body, span=span)
        if path == "/v1/run" and method == "POST":
            return await self._forward(
                self._live_worker(scenario_route_key(body)),
                method, path, body, span=span)
        # Everything else — unknown paths, wrong methods on worker
        # endpoints — forwards on a deterministic fallback key so the
        # 404/405 payloads stay byte-identical to a single process.
        fallback = (f"fallback|{method}|{path}|"
                    + hashlib.sha256(body).hexdigest())
        return await self._forward(self._live_worker(fallback),
                                   method, path, body)

    async def _proxy(self, worker: FleetWorker, method: str, path: str,
                     body: bytes, request_headers: dict[str, str] | None = None
                     ) -> tuple[int, dict[str, str], bytes]:
        """One accounted forward to ``worker`` (drain waits on these)."""
        worker._begin()
        self._c_proxied.labels(shard=worker.shard).inc()
        try:
            return await worker.client.request(method, path, body,
                                               headers=request_headers)
        finally:
            worker._end()

    async def _forward(self, worker: FleetWorker, method: str, path: str,
                       body: bytes, *, span=None) -> tuple[int, str, dict]:
        # With tracing on, each forward is its own child span and its
        # context rides the traceparent header — the worker's request
        # span becomes a child of this forward span, one trace across
        # the process boundary.
        forward_span = None
        request_headers = None
        if span is not None and span.context is not None:
            forward_span = self.spans.span("forward", parent=span.context,
                                           attributes={"shard": worker.shard})
            request_headers = {
                TRACEPARENT_HEADER: forward_span.context.traceparent()}
        try:
            status, headers, raw = await self._proxy(worker, method, path,
                                                     body, request_headers)
        except (OSError, ConnectionError, asyncio.IncompleteReadError,
                asyncio.TimeoutError) as exc:
            if forward_span is not None:
                forward_span.set("error", f"{type(exc).__name__}: {exc}")
                forward_span.finish(status="error")
            self._c_proxy_errors.inc()
            raise ProtocolError(
                f"shard {worker.shard!r} unreachable: "
                f"{type(exc).__name__}: {exc}", status=503) from exc
        if forward_span is not None:
            forward_span.set("status_code", status)
            forward_span.finish()
        extra = {"X-Repro-Shard": worker.shard}
        for wire_name, out_name in _FORWARDED_HEADERS.items():
            if wire_name in headers:
                extra[out_name] = headers[wire_name]
        return status, raw.decode("utf-8"), extra

    async def _route_batch(self, body: bytes,
                           span=None) -> tuple[int, dict | str, dict]:
        """Split a batch by shard and reassemble in request order.

        The router runs the same ``parse_batch_request`` the worker
        would, so malformed batches get byte-identical 400/413 payloads
        without one worker seeing the whole envelope; valid sub-requests
        route on their parsed route key (the LRU's store key, plus the
        group for multi-group requests)."""
        data = parse_body(body)
        requests = parse_batch_request(
            data, max_requests=self.max_batch_requests)
        raw_requests = data["requests"]
        groups: dict[str, list[int]] = {}
        for index, request in enumerate(requests):
            groups.setdefault(self._live_worker(request.route_key).shard,
                              []).append(index)
        if len(groups) == 1:
            (shard,) = groups
            return await self._forward(self.workers[shard], "POST",
                                       "/v1/batch", body, span=span)

        async def one(shard: str, indexes: list[int]):
            sub_body = json.dumps(
                {"requests": [raw_requests[i] for i in indexes]},
                sort_keys=True).encode("utf-8")
            return await self._forward(self.workers[shard], "POST",
                                       "/v1/batch", sub_body, span=span)

        ordered = sorted(groups.items())
        outcomes = await asyncio.gather(
            *(one(shard, indexes) for shard, indexes in ordered))
        # A failed sub-batch (429 backpressure on one shard, a 5xx)
        # fails the whole batch — mirroring the single process, whose
        # admission control is also all-or-nothing per batch.
        for (shard, _), (status, payload, headers) in zip(ordered, outcomes):
            if status != 200:
                return status, payload, headers
        entries: list = [None] * len(requests)
        for (shard, indexes), (_, payload, _) in zip(ordered, outcomes):
            for index, entry in zip(indexes, json.loads(payload)["responses"]):
                entries[index] = entry
        merged = {"schema": PROTOCOL_SCHEMA, "count": len(entries),
                  "responses": entries}
        return 200, merged, {
            "X-Repro-Shard": ",".join(shard for shard, _ in ordered)}

    # -- aggregation endpoints -----------------------------------------------
    async def _scatter_json(self, path: str) -> dict[str, dict | None]:
        """``{shard: parsed payload | None}`` from every live worker."""

        async def fetch(worker: FleetWorker):
            try:
                status, _, raw = await self._proxy(worker, "GET", path, b"")
                return worker.shard, (json.loads(raw) if status == 200
                                      else None)
            except Exception:
                return worker.shard, None

        results = await asyncio.gather(
            *(fetch(worker) for worker in self.live_workers()))
        return dict(results)

    async def health_payload(self) -> dict:
        from repro import __version__

        live = self.live_workers()
        return {"schema": PROTOCOL_SCHEMA, "status": "ok" if live else "down",
                "version": __version__,
                "fleet": {"workers": len(live),
                          "shards": sorted(w.shard for w in live)}}

    def fleet_payload(self) -> dict:
        return {"schema": PROTOCOL_SCHEMA,
                "ring": self.ring.describe(),
                "workers": [worker.describe() for worker in
                            sorted(self.workers.values(),
                                   key=lambda w: w.shard)]}

    async def stats_payload(self) -> dict:
        """Fleet-wide ``/v1/stats``: per-shard snapshots under
        ``"shards"``, plus aggregated ``store``/``batcher``/``http``
        blocks in the single-process shape so existing consumers (the
        loadgen report, ``check(expect_engaged=True)``) work unchanged
        against a router."""
        shards = await self._scatter_json("/v1/stats")
        live = {shard: stats for shard, stats in shards.items()
                if stats is not None}

        def agg(block: str, keys: tuple[str, ...], *,
                maxima: tuple[str, ...] = ()) -> dict:
            out = {}
            for key in keys:
                values = [stats.get(block, {}).get(key, 0)
                          for stats in live.values()]
                out[key] = (max(values) if key in maxima
                            else sum(values)) if values else 0
            return out

        responses: dict[str, int] = {}
        for stats in live.values():
            for code, count in stats.get("http", {}).get("responses", {}).items():
                responses[code] = responses.get(code, 0) + count
        snapshot = self.registry.snapshot()
        return {
            "schema": PROTOCOL_SCHEMA,
            "fleet": {
                "workers": len(self.live_workers()),
                "ring": self.ring.describe(),
                "router": {
                    "requests": counter_total(
                        snapshot, "repro_router_requests_total"),
                    "responses": status_counts(
                        snapshot, "repro_router_responses_total"),
                    "proxied": {worker.shard: worker.forwarded
                                for worker in self.live_workers()},
                    "proxy_errors": int(self._c_proxy_errors.value),
                    "in_flight": {worker.shard: worker.inflight
                                  for worker in self.live_workers()},
                },
            },
            "shards": {shard: (stats if stats is not None
                               else {"error": "unreachable"})
                       for shard, stats in sorted(shards.items())},
            "store": agg("store", ("capacity", "size", "building", "lookups",
                                   "hits", "misses", "evictions", "coalesced",
                                   "substrate_sessions_built",
                                   "substrate_sessions_shared")),
            "batcher": agg("batcher", ("requests", "batches",
                                       "batched_requests", "pending",
                                       "max_batch_size"),
                           maxima=("max_batch_size",)),
            "http": {"requests": agg("http", ("requests",))["requests"],
                     "rejected": agg("http", ("rejected",))["rejected"],
                     "responses": {code: responses[code]
                                   for code in sorted(responses)}},
            "spans": self.spans.stats_payload(),
        }

    async def metrics_text(self) -> str:
        """The fleet exposition: every worker's scrape relabeled with its
        ``shard``, merged with the router's own (``shard="router"``)."""
        parts = [relabel_exposition(self.registry.render(),
                                    {"shard": "router"})]

        async def fetch(worker: FleetWorker):
            try:
                status, _, raw = await self._proxy(worker, "GET", "/metrics", b"")
                return worker.shard, (raw.decode("utf-8")
                                      if status == 200 else None)
            except Exception:
                return worker.shard, None

        scrapes = await asyncio.gather(
            *(fetch(worker) for worker in self.live_workers()))
        for shard, text in sorted(scrapes):
            if text is not None:
                parts.append(relabel_exposition(text, {"shard": shard}))
        return merge_expositions(parts)

    # -- lifecycle -----------------------------------------------------------
    async def drain(self) -> None:
        """Wait for every in-flight forward, then drop the pooled worker
        connections (ServiceServer.close calls this); worker processes
        stay up — that is the supervisor's job."""
        for worker in list(self.workers.values()):
            try:
                await worker.wait_idle(self.drain_timeout)
            except asyncio.TimeoutError:  # pragma: no cover - stuck worker
                pass
            # Closed here, while the loop still runs: from Python 3.12 a
            # worker's server waits for open client connections before it
            # exits, so a pool left open would stall its shutdown.
            worker.client.close()


class Fleet:
    """Supervisor: boots N shared-nothing workers, owns their processes,
    wires them into a :class:`FleetRouter`, and tears everything down.

    >>> fleet = Fleet(workers=2)
    >>> router = fleet.start()          # spawns w0, w1 in parallel
    >>> # serve `router` (run_server / BackgroundServer) ...
    >>> fleet.shutdown()
    """

    def __init__(self, workers: int = 2, *, host: str = "127.0.0.1",
                 replicas: int = DEFAULT_REPLICAS, cache_size: int = 64,
                 queue_limit: int = 128, request_log_dir: str | None = None,
                 span_log_dir: str | None = None,
                 shard_prefix: str = "w", registry: MetricsRegistry | None = None,
                 startup_timeout: float = 120.0) -> None:
        if workers < 1:
            raise ValueError(f"need workers >= 1, got {workers}")
        self.n_workers = int(workers)
        self.host = host
        self.request_log_dir = request_log_dir
        # Span logs: one JSONL per shard plus the router's own, all under
        # span_log_dir — `python -m repro spans report DIR/*.jsonl`
        # stitches them back into cross-process traces.
        self.span_log_dir = span_log_dir
        self._router_spans = None
        if span_log_dir is not None:
            span_dir = pathlib.Path(span_log_dir)
            span_dir.mkdir(parents=True, exist_ok=True)
            self._router_spans = SpanRecorder.open(
                str(span_dir / "router.spans.jsonl"))
        self.startup_timeout = float(startup_timeout)
        self.shard_prefix = shard_prefix
        self._counter = 0
        self._counter_lock = threading.Lock()
        self.worker_flags = ("--cache-size", str(int(cache_size)),
                             "--queue-limit", str(int(queue_limit)))
        # The router's batch-envelope bound mirrors the worker's own
        # (CostSharingService clamps max_batch_requests to queue_limit).
        self.router = FleetRouter(
            replicas=replicas, registry=registry,
            max_batch_requests=min(64, int(queue_limit)),
            spawner=self.spawn_one, spans=self._router_spans)

    def _next_shard(self) -> str:
        with self._counter_lock:
            shard = f"{self.shard_prefix}{self._counter}"
            self._counter += 1
        return shard

    def _spawn(self, shard: str) -> FleetWorker:
        serve_args = list(self.worker_flags)
        if self.request_log_dir is not None:
            log_dir = pathlib.Path(self.request_log_dir)
            log_dir.mkdir(parents=True, exist_ok=True)
            serve_args += ["--request-log", str(log_dir / f"{shard}.jsonl")]
        if self.span_log_dir is not None:
            span_dir = pathlib.Path(self.span_log_dir)
            span_dir.mkdir(parents=True, exist_ok=True)
            serve_args += ["--span-log",
                           str(span_dir / f"{shard}.spans.jsonl")]
        process, port = spawn_worker(shard, host=self.host,
                                     serve_args=tuple(serve_args),
                                     startup_timeout=self.startup_timeout)
        return FleetWorker(shard, WorkerClient(self.host, port), process)

    def spawn_one(self) -> FleetWorker:
        """Spawn (but not attach) one new worker — the router's spawner."""
        return self._spawn(self._next_shard())

    def start(self) -> FleetRouter:
        """Boot the initial workers in parallel and return the router."""
        from concurrent.futures import ThreadPoolExecutor

        shards = [self._next_shard() for _ in range(self.n_workers)]
        with ThreadPoolExecutor(max_workers=len(shards)) as pool:
            workers = list(pool.map(self._spawn, shards))
        for worker in workers:
            self.router.attach(worker)
        return self.router

    def shutdown(self, timeout: float = 10.0) -> None:
        """Terminate every worker process (blocking; any thread)."""
        workers = list(self.router.workers.values())
        self.router.workers.clear()
        for worker in workers:
            if worker.shard in self.router.ring:
                self.router.ring.remove(worker.shard)
        if self._router_spans is not None:
            self._router_spans.close()
            self._router_spans = None
        if not workers:
            return
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(workers)) as pool:
            list(pool.map(lambda w: w.terminate(timeout), workers))

    def __enter__(self) -> "Fleet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
