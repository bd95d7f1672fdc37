"""The request-log line format, pinned.

One JSON line per priced request is an *interface*: fleet operators
join these lines against span logs (``trace_id``) and across shards
(``shard``), so the exact key set and rendering are pinned here — a new
field is a deliberate schema change, not an accident.
"""

from __future__ import annotations

import asyncio
import io
import json

from repro.api import ScenarioSpec
from repro.observability import RequestLogger, SpanRecorder
from repro.service import CostSharingService, ServiceClient


def _spec(seed: int) -> ScenarioSpec:
    return ScenarioSpec.from_random(n=6, alpha=2.0, seed=seed, side=5.0)


def _profiles(spec):
    return [{a: 4.0 for a in spec.agents()}]


def _priced_line(service_kwargs: dict) -> tuple[dict, str, dict]:
    """Price one request; returns (parsed log line, raw line, headers)."""
    spec = _spec(0)
    stream = io.StringIO()
    service = CostSharingService(
        request_log=RequestLogger(stream),
        **service_kwargs)

    async def go():
        client = ServiceClient(service)
        status, _, headers = await service.dispatch(
            "POST", "/v1/run",
            json.dumps({"scenario": spec.to_dict(), "mechanism": "jv",
                        "profiles": [{str(a): 4.0 for a in spec.agents()}]},
                       sort_keys=True).encode("utf-8"))
        assert status == 200
        del client
        return headers

    headers = asyncio.run(go())
    raw, = stream.getvalue().splitlines()
    return json.loads(raw), raw, headers


def test_untraced_unsharded_line_key_set_is_pinned():
    line, raw, _ = _priced_line({})
    assert set(line) == {"ts", "id", "kind", "scenario", "mechanism",
                         "profiles", "status", "stages_ms"}
    # Compact, key-sorted JSON — greppable and diff-stable.
    assert raw == json.dumps(line, sort_keys=True, separators=(",", ":"))
    assert line["kind"] == "run" and line["status"] == 200
    assert set(line["stages_ms"]) == {"parse", "queue", "build", "execute",
                                      "serialize"}


def test_traced_sharded_line_gains_trace_id_and_shard():
    spans = SpanRecorder()
    line, raw, headers = _priced_line({"shard": "w3", "spans": spans})
    assert set(line) == {"ts", "id", "kind", "scenario", "mechanism",
                         "profiles", "status", "stages_ms", "shard",
                         "trace_id"}
    assert raw == json.dumps(line, sort_keys=True, separators=(",", ":"))
    assert line["shard"] == "w3"
    # The logged trace id is the join key: it matches both the response
    # header and the recorded request span.
    assert line["trace_id"] == headers["X-Repro-Trace-Id"]
    request_span, = spans.recent("request")
    assert line["trace_id"] == request_span.trace_id
    assert len(line["trace_id"]) == 32
    int(line["trace_id"], 16)


def test_shard_without_tracing_logs_shard_but_no_trace_id():
    line, _, headers = _priced_line({"shard": "w1"})
    assert line["shard"] == "w1"
    assert "trace_id" not in line
    assert "X-Repro-Trace-Id" not in headers
