"""Fleet-wide span properties, end to end over real sockets.

A burst of N requests through a traced router + traced workers (real
``CostSharingService`` instances behind ``BackgroundServer`` sockets)
must leave span logs that stitch back into a *well-formed* forest:
every non-root parent resolves, batched requests share a flush
ancestor via their link attributes, and the reconstruction is a pure
function of the span set — shuffled log lines rebuild the identical
forest.  And the tracing must stay invisible on the wire: responses
through a traced fleet are bit-identical to an untraced one.
"""

from __future__ import annotations

import asyncio
import http.client
import io
import itertools
import json
import random
from contextlib import contextmanager

from repro.__main__ import main
from repro.observability import SpanRecorder
from repro.observability.tracing import read_span_lines, span_forest, span_report
from repro.service import BackgroundServer, CostSharingService
from repro.service.fleet import FleetRouter, FleetWorker, WorkerClient
from repro.service.loadgen import build_requests


def seq_ids(prefix: int):
    counter = itertools.count(1)
    return lambda n_hex: f"{prefix:02x}{next(counter):0{n_hex - 2}x}"


@contextmanager
def traced_fleet(n_workers: int = 2, **service_kwargs):
    """A FleetRouter over traced in-process workers behind real sockets;
    yields (router, router stream, {shard: stream})."""
    service_kwargs.setdefault("cache_size", 8)
    router_stream = io.StringIO()
    worker_streams: dict[str, io.StringIO] = {}
    servers = []
    router = FleetRouter(spans=SpanRecorder(router_stream, ids=seq_ids(0)))
    try:
        for index in range(n_workers):
            shard = f"w{index}"
            stream = io.StringIO()
            worker_streams[shard] = stream
            service = CostSharingService(
                shard=shard, spans=SpanRecorder(stream, ids=seq_ids(index + 1)),
                **service_kwargs)
            server = BackgroundServer(service)
            port = server.start()
            servers.append(server)
            router.attach(FleetWorker(shard, WorkerClient("127.0.0.1", port)))
        yield router, router_stream, worker_streams
    finally:
        for server in servers:
            server.stop()


def _bodies(count: int) -> list[bytes]:
    schedule = build_requests(requests=count, n=6, alpha=2.0, side=10.0,
                              seeds=[0, 1, 2], layouts=["uniform"],
                              mechanisms=["jv", "tree-shapley"],
                              profile_count=1)
    return [json.dumps(request, sort_keys=True).encode("utf-8")
            for request in schedule]


def _forest_shape(forest):
    return {
        trace_id: (sorted(tree.spans),
                   {key: list(value)
                    for key, value in sorted(tree.children.items(),
                                             key=lambda kv: str(kv[0]))})
        for trace_id, tree in forest.items()}


def test_fleet_burst_spans_are_well_formed_and_order_independent():
    with traced_fleet(2) as (
            router, router_stream, worker_streams):

        async def burst():
            # Concurrent same-scenario runs share flushes on their
            # shard; the mixed tail spreads traffic over both workers.
            same = _bodies(1) * 6
            mixed = _bodies(10)
            results = await asyncio.gather(
                *(router.dispatch("POST", "/v1/run", body)
                  for body in same + mixed))
            for status, payload, headers in results:
                assert status == 200, payload
                assert "X-Repro-Trace-Id" in headers
            await router.drain()
            return [headers["X-Repro-Trace-Id"]
                    for _, _, headers in results]

        trace_ids = asyncio.run(burst())

    lines = router_stream.getvalue().splitlines()
    for stream in worker_streams.values():
        lines.extend(stream.getvalue().splitlines())
    spans, malformed = read_span_lines(lines)
    assert malformed == 0
    forest = span_forest(spans)

    # Every non-root parent exists: all traces complete.
    assert all(tree.complete for tree in forest.values())
    # Every client-visible trace id is a reconstructed trace whose root
    # is the router's request span.
    for trace_id in trace_ids:
        tree = forest[trace_id]
        root, = tree.roots
        assert root.name == "request"
        assert root.attributes["shard"] == "router"

    report = span_report(spans)
    assert report["problems"] == []
    assert report["requests"] == 2 * len(trace_ids)  # router + worker each
    # The same-scenario burst shared at least one flush: >= 2 execute
    # spans carry the same flush link, and the flush span saw them.
    assert report["flushes"]["shared"] >= 1
    flush_links = {}
    for span in spans:
        if span.name == "execute":
            flush_links.setdefault(span.attributes["flush_span_id"],
                                   []).append(span)
    shared = [group for group in flush_links.values() if len(group) >= 2]
    assert shared
    for group in shared:
        # Batched requests belong to different traces — the flush link,
        # not tree ancestry, is what they share.
        flush_span, = [s for s in spans
                       if s.span_id == group[0].attributes["flush_span_id"]]
        assert flush_span.name == "flush"
        assert flush_span.attributes["requests"] >= len(group)
        assert all(s.attributes["flush_trace_id"] == flush_span.trace_id
                   for s in group)

    # Reconstruction is order-independent: shuffled lines, same forest.
    baseline = _forest_shape(forest)
    for seed in range(3):
        shuffled = list(lines)
        random.Random(seed).shuffle(shuffled)
        reparsed, _ = read_span_lines(shuffled)
        assert _forest_shape(span_forest(reparsed)) == baseline


def test_trace_id_round_trips_router_to_worker():
    with traced_fleet(2) as (router, router_stream, worker_streams):

        async def one():
            status, _, headers = await router.dispatch(
                "POST", "/v1/run", _bodies(1)[0])
            assert status == 200
            await router.drain()
            return headers["X-Repro-Trace-Id"]

        trace_id = asyncio.run(one())

    router_spans, _ = read_span_lines(router_stream.getvalue().splitlines())
    assert any(s.name == "request" and s.trace_id == trace_id
               for s in router_spans)
    # Exactly one worker carried the same trace: one request span, one
    # forward hop, same id end to end.
    carrying = []
    for shard, stream in worker_streams.items():
        worker_spans, _ = read_span_lines(stream.getvalue().splitlines())
        if any(s.name == "request" and s.trace_id == trace_id
               for s in worker_spans):
            carrying.append(shard)
    assert len(carrying) == 1
    forward, = [s for s in router_spans if s.name == "forward"]
    assert forward.trace_id == trace_id
    assert forward.attributes["shard"] == carrying[0]


def test_fleet_responses_bit_identical_with_tracing_on_and_off():
    bodies = _bodies(8)

    async def collect(router):
        out = []
        for body in bodies:
            status, payload, _ = await router.dispatch("POST", "/v1/run", body)
            out.append((status, json.dumps(payload, sort_keys=True)))
        return out

    with traced_fleet(2) as (traced, _, _):
        traced_out = asyncio.run(collect(traced))
    # The untraced twin: identical shard topology, no recorders.
    servers, untraced = [], FleetRouter()
    try:
        for index in range(2):
            shard = f"w{index}"
            service = CostSharingService(shard=shard, cache_size=8)
            server = BackgroundServer(service)
            port = server.start()
            servers.append(server)
            untraced.attach(
                FleetWorker(shard, WorkerClient("127.0.0.1", port)))
        plain_out = asyncio.run(collect(untraced))
    finally:
        for server in servers:
            server.stop()
    assert traced_out == plain_out


def test_router_stats_and_metrics_dump_see_the_fleet(tmp_path, capsys):
    with traced_fleet(2) as (router, _, _):

        async def drive():
            for body in _bodies(4):
                status, _, _ = await router.dispatch("POST", "/v1/run", body)
                assert status == 200
            await router.drain()
            return await router.dispatch("GET", "/v1/stats", b"")

        status, stats, _ = asyncio.run(drive())
        assert status == 200
        assert stats["spans"]["enabled"] is True
        assert stats["spans"]["recorded"] >= 4
        # Satellite: the summed legacy store keys include the substrate
        # counters (zero here — no multi-group traffic — but present).
        assert stats["store"]["substrate_sessions_built"] == 0
        assert stats["store"]["substrate_sessions_shared"] == 0

        # metrics-dump pointed at the router port: the merged fleet
        # exposition, with the per-shard summary block.
        front = BackgroundServer(router)
        port = front.start()
        try:
            rc = main(["metrics-dump", "--port", str(port)])
        finally:
            front.stop()
        assert rc == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["fleet"]["workers"] == ["w0", "w1"]
        assert snapshot["fleet"]["shards"] == ["router", "w0", "w1"]
        # The span export counters made it into the merged scrape.
        assert "repro_spans_exported_total" in snapshot["samples"]


def test_metrics_dump_single_service_has_no_fleet_block(capsys):
    service = CostSharingService()
    server = BackgroundServer(service)
    port = server.start()
    try:
        # Warm it so the exposition is non-trivial.
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
        connection.request("GET", "/v1/healthz")
        connection.getresponse().read()
        connection.close()
        rc = main(["metrics-dump", "--port", str(port)])
    finally:
        server.stop()
    assert rc == 0
    snapshot = json.loads(capsys.readouterr().out)
    assert "fleet" not in snapshot
    assert "samples" in snapshot and "types" in snapshot
