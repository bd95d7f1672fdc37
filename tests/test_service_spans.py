"""Request spans through the single-process service.

The serving contract: with a :class:`SpanRecorder` injected the service
narrates every priced request as a span tree (request -> parse/queue/
build/execute/serialize, plus session_build on cold misses), echoes the
trace id in ``X-Repro-Trace-Id``, and continues a trace named by an
incoming ``traceparent`` header — while the response *bodies* stay
bit-identical with tracing on, off, or propagated.
"""

from __future__ import annotations

import asyncio
import itertools
import json

from repro.api import ScenarioSpec
from repro.observability import SpanRecorder
from repro.observability.tracing import parse_traceparent
from repro.service import CostSharingService
from repro.service.protocol import TRACE_ID_HEADER, TRACEPARENT_HEADER


def _spec(seed: int) -> ScenarioSpec:
    return ScenarioSpec.from_random(n=6, alpha=2.0, seed=seed, side=5.0)


def _body(spec, mechanism="jv", **extra) -> bytes:
    return json.dumps({"scenario": spec.to_dict(), "mechanism": mechanism,
                       "profiles": [{str(a): 4.0 for a in spec.agents()}],
                       **extra}, sort_keys=True).encode("utf-8")


def seq_ids(prefix: int = 0):
    counter = itertools.count(1)
    return lambda n_hex: f"{prefix:02x}{next(counter):0{n_hex - 2}x}"


def dispatch(service, *calls):
    async def go():
        out = []
        for call in calls:
            out.append(await service.dispatch(*call[:3], **call[3] if
                                              len(call) > 3 else {}))
        return out
    return asyncio.run(go())


def test_traced_run_emits_the_full_span_family():
    spans = SpanRecorder(ids=seq_ids())
    service = CostSharingService(spans=spans)
    (status, _, headers), = dispatch(
        service, ("POST", "/v1/run", _body(_spec(0))))
    assert status == 200
    by_name = {span.name: span for span in spans.recent()}
    # Cold request: every stage leg plus the store's session build.
    assert set(by_name) == {"request", "parse", "queue", "build", "execute",
                            "serialize", "flush", "session_build"}
    request = by_name["request"]
    assert request.parent_id is None
    assert headers[TRACE_ID_HEADER] == request.trace_id
    assert request.attributes["method"] == "POST"
    assert request.attributes["path"] == "/v1/run"
    assert request.attributes["status_code"] == 200
    assert request.attributes["mechanism"] == "jv"
    assert request.attributes["profiles"] == 1
    assert len(request.attributes["scenario"]) == 12
    # Stage legs are children of the request span, in its trace.
    for name in ("parse", "queue", "execute", "serialize", "build"):
        assert by_name[name].trace_id == request.trace_id, name
        assert by_name[name].parent_id == request.context.span_id, name
    # The cold session build nests under the build leg.
    assert by_name["session_build"].parent_id == by_name["build"].context.span_id
    # The flush span roots its own trace; execute links back to it.
    flush = by_name["flush"]
    assert flush.parent_id is None and flush.trace_id != request.trace_id
    assert flush.attributes["requests"] == 1
    execute = by_name["execute"]
    assert execute.attributes["flush_trace_id"] == flush.trace_id
    assert execute.attributes["flush_span_id"] == flush.span_id
    assert execute.attributes["batch_size"] == 1
    # Warm re-run: no session_build this time.
    dispatch(service, ("POST", "/v1/run", _body(_spec(0))))
    assert len([s for s in spans.recent() if s.name == "session_build"]) == 1


def test_trace_id_header_is_pinned_32_hex():
    service = CostSharingService(spans=SpanRecorder())
    (status, _, headers), = dispatch(
        service, ("POST", "/v1/run", _body(_spec(1))))
    assert status == 200
    trace_id = headers[TRACE_ID_HEADER]
    assert len(trace_id) == 32
    int(trace_id, 16)
    assert trace_id == trace_id.lower()
    assert TRACE_ID_HEADER == "X-Repro-Trace-Id"
    assert TRACEPARENT_HEADER == "traceparent"


def test_incoming_traceparent_continues_the_trace():
    spans = SpanRecorder(ids=seq_ids())
    service = CostSharingService(spans=spans)
    upstream = parse_traceparent("00-" + "ab" * 16 + "-" + "cd" * 8 + "-01")
    (status, _, headers), = dispatch(
        service,
        ("POST", "/v1/run", _body(_spec(2)), {"trace_context": upstream}))
    assert status == 200
    assert headers[TRACE_ID_HEADER] == "ab" * 16
    request, = spans.recent("request")
    assert request.trace_id == "ab" * 16
    assert request.parent_id == "cd" * 8


def test_untraced_service_sends_no_trace_header():
    service = CostSharingService()
    (status, _, headers), = dispatch(
        service, ("POST", "/v1/run", _body(_spec(3))))
    assert status == 200
    assert TRACE_ID_HEADER not in headers


def test_bad_request_still_echoes_a_trace_and_marks_the_status():
    spans = SpanRecorder(ids=seq_ids())
    service = CostSharingService(spans=spans)
    (status, _, headers), = dispatch(
        service, ("POST", "/v1/run", b"{not json"))
    assert status == 400
    request, = spans.recent("request")
    assert headers[TRACE_ID_HEADER] == request.trace_id
    assert request.attributes["status_code"] == 400
    assert request.status == "ok"  # 4xx is the client's error, not ours


def test_batch_requests_share_one_flush_ancestor():
    spans = SpanRecorder(ids=seq_ids())
    # The batch's same-scenario submissions collect into one flush.
    service = CostSharingService(spans=spans)
    spec = _spec(4)
    body = json.dumps(
        {"requests": [json.loads(_body(spec)) for _ in range(3)]},
        sort_keys=True).encode("utf-8")
    (status, payload, headers), = dispatch(
        service, ("POST", "/v1/batch", body))
    assert status == 200 and payload["count"] == 3
    flush, = spans.recent("flush")
    assert flush.attributes["requests"] == 3
    executes = spans.recent("execute")
    assert len(executes) == 3
    assert {s.attributes["flush_span_id"] for s in executes} == {flush.span_id}
    assert all(s.attributes["batch_size"] == 3 for s in executes)
    # All three sub-requests ran under the one batch request span.
    request, = spans.recent("request")
    assert {s.parent_id for s in executes} == {request.context.span_id}
    assert headers[TRACE_ID_HEADER] == request.trace_id


def test_stats_spans_block_counts_and_exemplifies():
    spans = SpanRecorder(ids=seq_ids())
    service = CostSharingService(spans=spans)
    (_, _, headers), (_, stats, _) = dispatch(
        service,
        ("POST", "/v1/run", _body(_spec(5))),
        ("GET", "/v1/stats", b""))
    block = stats["spans"]
    assert block["enabled"] is True
    assert block["recorded"] >= 7 and block["dropped"] == 0
    assert block["exemplars"]["max"]["trace_id"] == headers[TRACE_ID_HEADER]

    untraced = CostSharingService()
    (_, stats, _), = dispatch(untraced, ("GET", "/v1/stats", b""))
    assert stats["spans"] == {"enabled": False}


def test_responses_bit_identical_with_tracing_on_off_and_propagated():
    bodies = [_body(_spec(seed), mechanism)
              for seed in (6, 7) for mechanism in ("jv", "tree-shapley")]
    plain = CostSharingService()
    traced = CostSharingService(spans=SpanRecorder())
    upstream = parse_traceparent("00-" + "ab" * 16 + "-" + "cd" * 8 + "-01")

    async def go():
        for body in bodies:
            expected = await plain.dispatch("POST", "/v1/run", body)
            fresh = await traced.dispatch("POST", "/v1/run", body)
            continued = await traced.dispatch("POST", "/v1/run", body,
                                              trace_context=upstream)
            # Same status, byte-identical payloads; only headers differ.
            for status, payload, _ in (fresh, continued):
                assert status == expected[0] == 200
                assert (json.dumps(payload, sort_keys=True)
                        == json.dumps(expected[1], sort_keys=True))

    asyncio.run(go())
