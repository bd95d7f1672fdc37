"""The cost-sharing service: dispatch core, in-process client, HTTP layer.

Three pieces, layered so tests can stop at any of them:

* :class:`CostSharingService` — the transport-agnostic application.
  ``dispatch(method, path, body)`` routes the endpoints, applies
  admission control (bounded in-flight work; over the bound a request is
  answered ``429`` with a ``Retry-After`` header instead of queueing
  unboundedly), and maps :class:`~repro.service.protocol.ProtocolError`
  and runtime validation errors to JSON error responses.
* :class:`ServiceClient` — the in-process client: same ``dispatch``, no
  sockets.  What the property tests, the examples and the benchmark
  drive.
* :class:`ServiceServer` — a minimal asyncio HTTP/1.1 front end over
  ``dispatch`` (stdlib only), with keep-alive and bounded request
  bodies.  ``python -m repro serve`` runs it; ``python -m repro
  loadgen`` load-tests it.

Endpoints::

    POST /v1/run      one pricing request        -> run payload
    POST /v1/batch    {"requests": [...]}        -> per-request payloads
    GET  /v1/healthz  liveness                   -> {"status": "ok", ...}
    GET  /v1/stats    store/batcher/http counters + registry snapshot
    GET  /metrics     Prometheus text exposition of the whole pipeline

Every successful response body is a pure function of the request (the
store and batcher only cache pure functions), so cold, warm and batched
paths answer bit-identically — the property
``tests/test_service_property.py`` pins; telemetry only watches the
pipeline, it never feeds back into response bytes.

``/v1/run`` and ``/v1/batch`` share one pricing path; a run is the
one-item batch, answered unwrapped.  Each priced item gets one
:class:`~repro.observability.RequestStages` ledger, which times each of
its stages (``parse``/``queue``/``build``/``execute``/``serialize``)
once into the stage histogram, the request's spans and its log line.

Each service owns one :class:`~repro.observability.MetricsRegistry`
(injectable for tests) shared by its store, batcher and sessions, so
``GET /metrics`` exposes the full pipeline: per-stage latency
histograms, LRU hit/miss/eviction counters, micro-batch occupancy, and
HTTP status-code rates.  With a
:class:`~repro.observability.RequestLogger` attached, every priced
item also emits one structured JSON log line (request id, scenario
key hash, per-stage millisecond timings, status).
"""

from __future__ import annotations

import asyncio
import json
import time

from repro.observability import (
    NULL_SPAN_RECORDER,
    MetricsRegistry,
    RequestLogger,
    RequestStages,
    parse_traceparent,
    scenario_hash,
    stage_histogram,
)
from repro.service.batching import MicroBatcher
from repro.service.protocol import (
    PROTOCOL_SCHEMA,
    TRACE_ID_HEADER,
    TRACEPARENT_HEADER,
    ProtocolError,
    error_payload,
    parse_batch_request,
    parse_body,
    parse_run_request,
    run_payload,
)
from repro.service.state import SessionStore

HTTP_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found", 405: "Method Not Allowed",
    409: "Conflict", 413: "Content Too Large", 429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 501: "Not Implemented", 502: "Bad Gateway",
    503: "Service Unavailable",
}

# Exceptions a pricing request raises for bad input: the client's error
# (400), not a server fault (500).
_CLIENT_ERRORS = (ProtocolError, ValueError, TypeError, KeyError)

METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

# Header lines accepted per request; one more is answered 431.  Each line
# is already bounded by the StreamReader limit, so this bounds the whole
# header block a client can make the server hold.
MAX_HEADERS = 100

# Known routes keep their own label; anything else (typo'd paths, scans)
# collapses into "other" so 404 traffic cannot mint unbounded label sets.
_KNOWN_PATHS = ("/v1/run", "/v1/batch", "/v1/healthz", "/v1/stats", "/metrics")


def counter_total(snapshot: dict, name: str) -> int:
    """Sum over every series of counter ``name`` in a registry snapshot
    (0 when the family is absent)."""
    return int(sum(series.get("value", 0) for series in
                   snapshot.get(name, {}).get("series", [])))


def status_counts(snapshot: dict, name: str) -> dict[str, int]:
    """``{code: count}`` of a status-code counter family in a snapshot."""
    return {series["labels"]["code"]: int(series["value"])
            for series in snapshot.get(name, {}).get("series", [])}


class CostSharingService:
    """The transport-agnostic serving application (store + batcher +
    admission control + routing + telemetry)."""

    def __init__(self, *, cache_size: int = 64, queue_limit: int = 128,
                 max_batch_requests: int = 64, max_body: int = 8 << 20,
                 retry_after: float = 1.0, executor=None,
                 registry: MetricsRegistry | None = None,
                 request_log: RequestLogger | None = None,
                 shard: str | None = None, spans=None) -> None:
        if queue_limit < 1:
            raise ValueError(f"queue_limit must be >= 1, got {queue_limit}")
        # The shard identity a fleet worker serves under (None outside a
        # fleet).  Surfaced in /v1/healthz and /v1/stats so the router
        # and CI can verify which worker answered; never in run payloads
        # (those stay bit-identical to the single-process service).
        self.shard = shard
        self.registry = registry if registry is not None else MetricsRegistry()
        self.request_log = request_log
        # Request-span recorder (tracing).  Disabled by default — the
        # null recorder makes every span operation a no-op — and shared
        # with the store (session_build spans) and batcher (flush/queue/
        # execute spans) so one request's legs land in one trace.
        self.spans = spans if spans is not None else NULL_SPAN_RECORDER
        # Injected recorders were built before this registry existed —
        # re-home their export counters so /metrics scrapes them.
        self.spans.use_registry(self.registry)
        self.store = SessionStore(capacity=cache_size, registry=self.registry,
                                  spans=self.spans)
        self.batcher = MicroBatcher(self.store, executor=executor,
                                    spans=self.spans)
        self.queue_limit = int(queue_limit)
        # A batch must be admissible on an idle server: anything larger
        # than the queue limit would 429 forever (with a Retry-After that
        # can never come true), so oversize batches get the honest,
        # non-retryable 413 from the parser instead.
        self.max_batch_requests = min(int(max_batch_requests), self.queue_limit)
        self.max_body = int(max_body)
        self.retry_after = float(retry_after)
        self._inflight = 0
        # -- telemetry -------------------------------------------------------
        self._c_requests = self.registry.counter(
            "repro_http_requests_total", "HTTP requests dispatched",
            labels=("method", "path"))
        self._c_responses = self.registry.counter(
            "repro_http_responses_total", "HTTP responses by status code",
            labels=("code",))
        self._c_rejected = self.registry.counter(
            "repro_http_rejected_total",
            "Requests answered 429 by admission control")
        self._g_inflight = self.registry.gauge(
            "repro_http_in_flight", "Admitted requests currently in flight")
        self._g_queue_limit = self.registry.gauge(
            "repro_http_queue_limit", "Admission-control in-flight bound")
        self._g_queue_limit.set(self.queue_limit)
        self._h_stage = stage_histogram(self.registry)

    # -- routing -------------------------------------------------------------
    async def dispatch(self, method: str, path: str, body: bytes = b"", *,
                       trace_context=None) -> tuple[int, dict | str, dict]:
        """Answer one request: ``(status, payload, extra_headers)``.

        ``trace_context`` (a :class:`~repro.observability.SpanContext`,
        parsed from an incoming ``traceparent`` header by the HTTP
        layer) continues a caller's trace — how a router-opened trace
        survives the hop onto this worker.  With tracing enabled every
        priced request gets a ``request`` span and the response carries
        its trace id in ``X-Repro-Trace-Id``; the response *body* is
        bit-identical either way."""
        self._c_requests.labels(
            method=method,
            path=path if path in _KNOWN_PATHS else "other").inc()
        span = None
        if self.spans.enabled and path in ("/v1/run", "/v1/batch"):
            span = self.spans.span(
                "request", parent=trace_context,
                attributes={"method": method, "path": path,
                            **({"shard": self.shard}
                               if self.shard is not None else {})})
        try:
            status, payload, headers = await self._route(method, path, body,
                                                         span=span)
        except ProtocolError as exc:
            headers = ({"Retry-After": f"{self.retry_after:g}"}
                       if exc.status == 429 else {})
            status, payload = exc.status, error_payload(exc.message)
        except _CLIENT_ERRORS as exc:
            # Runtime validation the parser cannot see (stray agents in a
            # profile, negative utilities, ...) is still the client's
            # error, not a server fault.
            status, payload, headers = 400, error_payload(str(exc)), {}
        except Exception as exc:
            # Anything else is a server fault — answer 500 rather than
            # vanish mid-connection, and count it.
            status, payload, headers = 500, error_payload(
                f"internal error: {type(exc).__name__}: {exc}"), {}
        if span is not None:
            span.set("status_code", status)
            span.finish(status="ok" if status < 500 else "error")
            headers = {**headers, TRACE_ID_HEADER: span.trace_id}
        self._c_responses.labels(code=str(status)).inc()
        if status >= 400 and self.request_log is not None:
            self.request_log.log(
                id=self.request_log.next_id(), kind="error", method=method,
                path=path, status=status,
                **({"shard": self.shard} if self.shard is not None else {}),
                **({"trace_id": span.trace_id} if span is not None else {}),
                error=payload.get("error") if isinstance(payload, dict) else None)
        return status, payload, headers

    async def _route(self, method: str, path: str, body: bytes,
                     span=None) -> tuple[int, dict | str, dict]:
        if path == "/v1/healthz":
            if method != "GET":
                return self._method_not_allowed("GET")
            return 200, self.health_payload(), {}
        if path == "/v1/stats":
            if method != "GET":
                return self._method_not_allowed("GET")
            return 200, self.stats_payload(), {}
        if path == "/metrics":
            if method != "GET":
                return self._method_not_allowed("GET")
            return 200, self.registry.render(), {
                "Content-Type": METRICS_CONTENT_TYPE}
        if path in ("/v1/run", "/v1/batch"):
            if method != "POST":
                return self._method_not_allowed("POST")
            return 200, await self._price(body, span,
                                          batch=path == "/v1/batch"), {}
        return 404, error_payload(
            f"no such endpoint {path!r} (try /v1/run, /v1/batch, "
            "/v1/healthz, /v1/stats, /metrics)"), {}

    async def _price(self, body: bytes, span, *, batch: bool) -> dict:
        """The one pricing path: parse, admit, submit each item, then
        serialize and log each item.  ``/v1/run`` is the one-item case:
        its item's error propagates to :meth:`dispatch` and its payload
        is the item's body; a batch answers a client error per item."""
        t0 = time.perf_counter()
        data = parse_body(body)
        requests = (parse_batch_request(data, max_requests=self.max_batch_requests)
                    if batch else [parse_run_request(data)])
        parse_s = time.perf_counter() - t0
        envelope = RequestStages(self._h_stage, self.spans,
                                 span.context if span is not None else None)
        envelope.record("parse", parse_s)
        if span is not None and not batch:
            self._annotate_span(span, requests[0])
        ledgers = [envelope.fork() for _ in requests]
        async with self._admission(len(requests)):
            if batch:
                outcomes = await asyncio.gather(
                    *(self.batcher.submit(request, stages)
                      for request, stages in zip(requests, ledgers)),
                    return_exceptions=True)
            else:
                outcomes = [await self.batcher.submit(requests[0], ledgers[0])]
        # A server fault answers the whole batch 500: raise it before
        # any item is serialized or logged as served.
        for outcome in outcomes:
            if (isinstance(outcome, BaseException)
                    and not isinstance(outcome, _CLIENT_ERRORS)):
                raise outcome
        trace_id = span.trace_id if span is not None else None
        entries = []
        for index, (request, stages, outcome) in enumerate(
                zip(requests, ledgers, outcomes)):
            position = {"batch_index": index} if batch else {}
            if isinstance(outcome, BaseException):
                message = getattr(outcome, "message", None) or str(outcome)
                entries.append({"status": 400, "body": error_payload(message)})
                self._log_run(request, 400, {"parse": parse_s},
                              trace_id=trace_id, error=message, **position)
                continue
            t1 = time.perf_counter()
            entries.append({"status": 200, "body": run_payload(request, outcome)})
            stages.record("serialize", time.perf_counter() - t1)
            self._log_run(request, 200, stages.seconds, trace_id=trace_id,
                          **position)
        if not batch:
            return entries[0]["body"]
        return {"schema": PROTOCOL_SCHEMA, "count": len(entries),
                "responses": entries}

    def _method_not_allowed(self, allowed: str) -> tuple[int, dict, dict]:
        return 405, error_payload(f"method not allowed (use {allowed})"), {
            "Allow": allowed}

    def _annotate_span(self, span, request) -> None:
        """What the request span carries once parsing resolved it."""
        span.set("scenario", scenario_hash(request.key))
        span.set("mechanism", request.mechanism.name)
        span.set("profiles", len(request.profiles))
        if request.is_dynamic:
            span.set("epoch", request.epoch)
        if request.group is not None:
            span.set("group", request.group)

    def _log_run(self, request, status: int, stages: dict,
                 trace_id: str | None = None, **fields: object) -> None:
        if self.request_log is None:
            return
        self.request_log.log(
            id=self.request_log.next_id(), kind="run",
            scenario=scenario_hash(request.key),
            mechanism=request.mechanism.name,
            profiles=len(request.profiles),
            **({"epoch": request.epoch} if request.is_dynamic else {}),
            **({"group": request.group} if request.group is not None else {}),
            # The worker's shard label and the request's trace id make
            # fleet log joins lossless: grep one trace id across the
            # span logs and every shard's request log.
            **({"shard": self.shard} if self.shard is not None else {}),
            **({"trace_id": trace_id} if trace_id is not None else {}),
            status=status,
            stages_ms={name: round(seconds * 1e3, 3)
                       for name, seconds in stages.items()},
            **fields)

    # -- admission control ---------------------------------------------------
    def _admission(self, cost: int) -> "_Admission":
        return _Admission(self, cost)

    def health_payload(self) -> dict:
        from repro import __version__

        payload = {"schema": PROTOCOL_SCHEMA, "status": "ok",
                   "version": __version__}
        if self.shard is not None:
            payload["shard"] = self.shard
        return payload

    def stats_payload(self) -> dict:
        snapshot = self.registry.snapshot()
        # The multi-group substrate-sharing counters ride in the store
        # block (they are session-store state, published by the sessions
        # the store holds) so the fleet router's legacy-key aggregation
        # sums them instead of losing them in the merge.
        store = self.store.stats()
        store["substrate_sessions_built"] = counter_total(
            snapshot, "repro_trace_substrate_built_total")
        store["substrate_sessions_shared"] = counter_total(
            snapshot, "repro_trace_substrate_shared_total")
        return {
            "schema": PROTOCOL_SCHEMA,
            **({"shard": self.shard} if self.shard is not None else {}),
            "store": store,
            "batcher": self.batcher.stats(),
            "http": {
                "requests": counter_total(snapshot, "repro_http_requests_total"),
                "in_flight": self._inflight,
                "queue_limit": self.queue_limit,
                "rejected": counter_total(snapshot, "repro_http_rejected_total"),
                "responses": status_counts(snapshot,
                                           "repro_http_responses_total"),
            },
            "spans": self.spans.stats_payload(),
            "metrics": snapshot,
        }

    async def drain(self) -> None:
        """Finish all admitted work (used by tests and shutdown)."""
        await self.batcher.drain()


class _Admission:
    """Bounded in-flight accounting: admit or answer 429 — never queue
    beyond ``queue_limit`` admitted requests."""

    def __init__(self, service: CostSharingService, cost: int) -> None:
        self.service, self.cost = service, cost

    async def __aenter__(self) -> None:
        service = self.service
        if service._inflight + self.cost > service.queue_limit:
            service._c_rejected.inc()
            raise ProtocolError(
                f"queue full ({service._inflight} in flight, limit "
                f"{service.queue_limit}); retry after "
                f"{service.retry_after:g}s", status=429)
        service._inflight += self.cost
        service._g_inflight.set(service._inflight)

    async def __aexit__(self, *exc_info) -> None:
        self.service._inflight -= self.cost
        self.service._g_inflight.set(self.service._inflight)


class ServiceClient:
    """In-process client: the same dispatch the HTTP layer calls, minus
    the sockets — responses are byte-identical to the wire."""

    def __init__(self, service: CostSharingService) -> None:
        self.service = service

    async def request(self, method: str, path: str, payload: dict | None = None,
                      *, body: bytes | None = None) -> tuple[int, dict]:
        if body is None:
            body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        status, out, _headers = await self.service.dispatch(method, path, body)
        return status, out

    async def run(self, scenario, mechanism, profiles, *, params: dict | None = None,
                  epoch: int | None = None,
                  group: str | None = None) -> tuple[int, dict]:
        """POST /v1/run.  ``scenario`` may be a spec object or its wire
        dict; ``mechanism`` a name or a ``{"name", "params"}`` dict."""
        payload: dict = {
            "scenario": scenario.to_dict() if hasattr(scenario, "to_dict") else scenario,
            "mechanism": (mechanism.to_dict() if hasattr(mechanism, "to_dict")
                          else mechanism),
            "profiles": [{str(a): float(v) for a, v in p.items()} for p in (
                profiles if isinstance(profiles, (list, tuple)) else [profiles])],
        }
        if params is not None:
            payload["params"] = params
        if epoch is not None:
            payload["epoch"] = epoch
        if group is not None:
            payload["group"] = group
        return await self.request("POST", "/v1/run", payload)

    async def batch(self, requests: list[dict]) -> tuple[int, dict]:
        return await self.request("POST", "/v1/batch", {"requests": requests})

    async def healthz(self) -> tuple[int, dict]:
        return await self.request("GET", "/v1/healthz")

    async def stats(self) -> tuple[int, dict]:
        return await self.request("GET", "/v1/stats")

    async def metrics(self) -> tuple[int, str]:
        """GET /metrics: the Prometheus text exposition."""
        return await self.request("GET", "/metrics")


class ServiceServer:
    """Minimal asyncio HTTP/1.1 front end over ``service.dispatch``."""

    def __init__(self, service: CostSharingService, host: str = "127.0.0.1",
                 port: int = 0, *, read_timeout: float = 30.0) -> None:
        self.service = service
        self.host = host
        self.port = port  # 0 = ephemeral; updated to the bound port on start
        self.read_timeout = float(read_timeout)
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[asyncio.Task] = set()
        # Connections between reading a request and writing its answer;
        # a closing server lets these finish (see close()).
        self._answering: set[asyncio.Task] = set()
        self._closing = False

    async def start(self) -> "ServiceServer":
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def serve_forever(self) -> None:
        """Park the caller until cancelled; :meth:`close` shuts down.

        The listener accepts from :meth:`start` on.  Not
        ``asyncio.Server.serve_forever``: from Python 3.12.1 its
        cancellation waits for every open client connection, so an idle
        keep-alive client would hold it until the read timeout."""
        assert self._server is not None, "call start() first"
        await asyncio.get_running_loop().create_future()

    async def close(self) -> None:
        """Stop accepting; let each connection inside ``dispatch`` write
        its answer (with ``Connection: close``); drop the others, which
        hold no admitted request; then drain."""
        self._closing = True
        if self._server is not None:
            self._server.close()  # stop accepting
        # Connections waiting for a request would otherwise linger until
        # their read timeout; a closing server drops them.  Before waiting
        # for the server: from Python 3.12.1 ``wait_closed`` waits for
        # every open client connection.
        for task in self._connections - self._answering:
            task.cancel()
        if self._connections:
            await asyncio.gather(*list(self._connections),
                                 return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()
            self._server = None
        await self.service.drain()

    # -- connection handling -------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        try:
            while not self._closing:
                if not await self._handle_one(reader, writer):
                    break
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.TimeoutError):
            pass  # client went away / a read deadline expired
        except asyncio.CancelledError:
            pass  # server shutting down mid-keep-alive; drop the connection
        except Exception:
            # Wire-level surprises (e.g. a request line overrunning the
            # StreamReader limit raises ValueError): answer 400 if the
            # socket still takes it, then drop the connection.
            try:
                await self._respond(writer, 400,
                                    error_payload("unreadable request"),
                                    {}, keep_alive=False)
            except Exception:
                pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                # A cancel landing here (server or loop shutdown) would
                # otherwise end the task cancelled, which the stream
                # protocol's done-callback reports to the loop's exception
                # handler on Python 3.11.
                pass

    async def _handle_one(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> bool:
        # One deadline for the wait for a request and one for the rest of
        # it, not one per read: a client that trickles header lines cannot
        # stretch the second.
        async with asyncio.timeout(self.read_timeout):
            request_line = await reader.readline()
        if not request_line:
            return False
        parts = request_line.decode("latin-1").strip().split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            await self._respond(writer, 400,
                                error_payload("malformed request line"),
                                {}, keep_alive=False)
            return False
        method, target, version = parts
        try:
            async with asyncio.timeout(self.read_timeout):
                headers, body = await self._read_message(reader)
        except ProtocolError as exc:
            # The rest of the request stays unread, so the connection
            # cannot be reused.
            await self._respond(writer, exc.status, error_payload(exc.message),
                                {}, keep_alive=False)
            return False

        path = target.split("?", 1)[0]
        task = asyncio.current_task()
        self._answering.add(task)
        try:
            # An incoming traceparent header continues the caller's trace
            # (malformed headers degrade to None: a fresh trace, never an
            # error) — the cross-process propagation hop.
            status, payload, extra = await self.service.dispatch(
                method, path, body,
                trace_context=parse_traceparent(headers.get(TRACEPARENT_HEADER)))
            keep_alive = (version == "HTTP/1.1"
                          and headers.get("connection", "").lower() != "close"
                          and not self._closing)
            await self._respond(writer, status, payload, extra,
                                keep_alive=keep_alive)
        finally:
            self._answering.discard(task)
        return keep_alive

    async def _read_message(self, reader: asyncio.StreamReader
                            ) -> tuple[dict[str, str], bytes]:
        """The header block and body after a request line; a request this
        server will not frame raises :class:`ProtocolError`."""
        headers: dict[str, str] = {}
        received = 0
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            received += 1
            if received > MAX_HEADERS:
                raise ProtocolError(
                    f"more than {MAX_HEADERS} request header lines", status=431)
            name, _, value = line.decode("latin-1").partition(":")
            name, value = name.strip().lower(), value.strip()
            if name == "content-length" and headers.get(name, value) != value:
                # Either length would leave bytes of the body to be read
                # as the next request; read nothing further.
                raise ProtocolError("conflicting Content-Length headers")
            headers[name] = value
        if "transfer-encoding" in headers:
            # Only Content-Length framing is read: an unread chunked body
            # would be parsed as the next request.
            raise ProtocolError(
                "Transfer-Encoding is not supported; send a Content-Length "
                "body", status=501)
        try:
            length = int(headers.get("content-length", "0"))
        except ValueError:
            length = -1
        if length < 0:
            raise ProtocolError("invalid Content-Length")
        if length > self.service.max_body:
            raise ProtocolError(
                f"request body of {length} bytes exceeds the "
                f"{self.service.max_body}-byte limit", status=413)
        body = await reader.readexactly(length) if length else b""
        return headers, body

    async def _respond(self, writer: asyncio.StreamWriter, status: int,
                       payload: dict | str, extra: dict, *,
                       keep_alive: bool) -> None:
        extra = dict(extra)
        if isinstance(payload, str):
            # Pre-rendered text endpoint (/metrics); the route supplies
            # its own Content-Type.
            body = payload.encode("utf-8")
            content_type = extra.pop("Content-Type", "text/plain; charset=utf-8")
        else:
            body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
            content_type = "application/json"
        reason = HTTP_REASONS.get(status, "Unknown")
        lines = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        lines.extend(f"{name}: {value}" for name, value in extra.items())
        writer.write(("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body)
        await writer.drain()


async def run_server(service: CostSharingService, host: str, port: int,
                     *, ready=None) -> None:
    """Start the HTTP server and serve until cancelled.  ``ready`` (if
    given) is called with the bound :class:`ServiceServer` once
    listening — how callers learn an ephemeral port."""
    server = ServiceServer(service, host, port)
    await server.start()
    if ready is not None:
        ready(server)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.close()


class BackgroundServer:
    """The HTTP server on its own event-loop thread.

    What synchronous drivers — benchmarks, examples, the fleet tests —
    use to stand a service (or a duck-typed
    :class:`~repro.service.fleet.FleetRouter`) behind a real socket
    without owning an event loop themselves::

        server = BackgroundServer(service)
        port = server.start()      # bound ephemeral port
        ...  # drive it over HTTP from any thread
        server.stop()              # cancels serving, drains, joins
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._thread = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._task: asyncio.Task | None = None

    def start(self, *, timeout: float = 30.0) -> int:
        """Serve on a daemon thread; returns the bound port."""
        import threading

        if self._thread is not None:
            raise RuntimeError("BackgroundServer already started")
        started = threading.Event()
        failure: list[BaseException] = []

        def runner() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop

            async def main() -> None:
                server = ServiceServer(self.service, self.host, self.port)
                try:
                    await server.start()
                except BaseException as exc:
                    failure.append(exc)
                    started.set()
                    return
                self.port = server.port
                self._task = asyncio.current_task()
                started.set()
                try:
                    await server.serve_forever()
                except asyncio.CancelledError:
                    pass
                finally:
                    await server.close()

            try:
                loop.run_until_complete(main())
            finally:
                loop.close()

        self._thread = threading.Thread(target=runner, daemon=True,
                                        name="repro-background-server")
        self._thread.start()
        if not started.wait(timeout):
            raise RuntimeError("background server never came up")
        if failure:
            self._thread.join(timeout)
            self._thread = None
            raise failure[0]
        return self.port

    def stop(self, *, timeout: float = 30.0) -> None:
        """Cancel serving, drain the service, and join the thread."""
        if self._thread is None:
            return
        if self._loop is not None and self._task is not None:
            self._loop.call_soon_threadsafe(self._task.cancel)
        self._thread.join(timeout)
        self._thread = None

    def __enter__(self) -> "BackgroundServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
