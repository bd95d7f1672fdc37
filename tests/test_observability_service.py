"""Observability through the serving pipeline: /metrics, stats, logs.

The service-facing half of the telemetry contract: ``GET /metrics``
serves valid Prometheus text covering every pipeline family, the stats
payload carries an atomic registry snapshot next to the (pinned) legacy
counters, responses stay bit-identical to direct sessions with the
instrumentation on, request logs are one parseable JSON line per priced
request, and the store's compound counters never tear under
concurrency — ``hits + misses == lookups`` in *every* snapshot, which
the registry lock guarantees.
"""

from __future__ import annotations

import asyncio
import io
import json
import threading
import time

import pytest

from repro.api import MulticastSession, ScenarioSpec, result_to_dict
from repro.observability import (
    MetricsRegistry,
    RequestLogger,
    SpanRecorder,
    parse_exposition,
    sample_total,
    scenario_hash,
    stage_histogram,
)
from repro.service import CostSharingService, ServiceClient, ServiceServer, SessionStore
from repro.service.loadgen import LoadReport
from repro.service.server import METRICS_CONTENT_TYPE


def _spec(seed: int, n: int = 6) -> ScenarioSpec:
    return ScenarioSpec.from_random(n=n, alpha=2.0, seed=seed, side=5.0)


def _profiles(spec, utility=4.0):
    return [{a: utility for a in spec.agents()}]


def run(coro):
    return asyncio.run(coro)


# -- GET /metrics -------------------------------------------------------------
def test_metrics_endpoint_serves_every_pipeline_family():
    spec = _spec(0)
    profiles = _profiles(spec)

    async def go():
        client = ServiceClient(CostSharingService())
        for _ in range(3):
            status, _ = await client.run(spec, "jv", profiles)
            assert status == 200
        await client.request("GET", "/no/such/path")
        status, text = await client.metrics()
        assert status == 200
        return text

    text = run(go())
    parsed = parse_exposition(text)
    # The whole pipeline reports: stage latencies, store, batch, HTTP.
    assert parsed["types"]["repro_stage_seconds"] == "histogram"
    assert parsed["types"]["repro_batch_occupancy"] == "histogram"
    assert parsed["types"]["repro_store_lookups_total"] == "counter"
    assert parsed["types"]["repro_http_requests_total"] == "counter"
    assert parsed["types"]["repro_http_in_flight"] == "gauge"
    assert parsed["types"]["repro_session_build_seconds"] == "histogram"
    for stage in ("parse", "queue", "build", "execute", "serialize"):
        assert sample_total(parsed, "repro_stage_seconds_count",
                            {"stage": stage}) == 3, stage
    assert sample_total(parsed, "repro_store_lookups_total") == 3
    assert sample_total(parsed, "repro_store_hits_total") == 2
    assert sample_total(parsed, "repro_store_misses_total") == 1
    assert sample_total(parsed, "repro_http_requests_total",
                        {"method": "POST", "path": "/v1/run"}) == 3
    # Unknown paths collapse into the "other" label (cardinality cap).
    assert sample_total(parsed, "repro_http_requests_total",
                        {"path": "other"}) == 1
    assert sample_total(parsed, "repro_http_responses_total",
                        {"code": "200"}) == 3
    assert sample_total(parsed, "repro_http_responses_total",
                        {"code": "404"}) == 1


def test_metrics_histogram_invariants_on_the_wire():
    spec = _spec(1)

    async def go():
        client = ServiceClient(CostSharingService())
        await client.run(spec, "tree-shapley", _profiles(spec))
        _, text = await client.metrics()
        return text

    parsed = parse_exposition(run(go()))
    for name, samples in parsed["samples"].items():
        if not name.endswith("_bucket"):
            continue
        family = name[:-len("_bucket")]
        by_series: dict[tuple, list[tuple[float, float]]] = {}
        for labels, value in samples:
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            by_series.setdefault(key, []).append(
                (float(labels["le"].replace("+Inf", "inf")), value))
        for key, buckets in by_series.items():
            buckets.sort()
            counts = [count for _, count in buckets]
            assert all(a <= b for a, b in zip(counts, counts[1:])), name
            assert buckets[-1][0] == float("inf")
            where = dict(key)
            assert counts[-1] == sample_total(
                parsed, f"{family}_count", where), name


def test_http_metrics_content_type_and_scrapeability():
    spec = _spec(2)
    body = json.dumps({"scenario": spec.to_dict(), "mechanism": "jv",
                       "profiles": [{str(a): 4.0 for a in spec.agents()}]}).encode()

    async def go():
        service = CostSharingService()
        server = await ServiceServer(service, port=0).start()
        try:
            reader, writer = await asyncio.open_connection("127.0.0.1",
                                                           server.port)
            try:
                writer.write((f"POST /v1/run HTTP/1.1\r\nHost: t\r\n"
                              f"Content-Length: {len(body)}\r\n\r\n").encode()
                             + body)
                writer.write(b"GET /metrics HTTP/1.1\r\nHost: t\r\n"
                             b"Content-Length: 0\r\nConnection: close\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
            finally:
                writer.close()
        finally:
            await server.close()
        return raw.decode("utf-8")

    raw = run(go())
    # The second response on the keep-alive connection is the scrape.
    head, _, scrape = raw.rpartition("HTTP/1.1 200 OK\r\n")
    assert head  # the /v1/run response preceded it
    headers, _, text = scrape.partition("\r\n\r\n")
    assert f"Content-Type: {METRICS_CONTENT_TYPE}" in headers
    parsed = parse_exposition(text)
    assert sample_total(parsed, "repro_http_requests_total",
                        {"path": "/v1/run"}) == 1


# -- /v1/stats ----------------------------------------------------------------
def test_stats_carries_registry_snapshot_next_to_pinned_legacy_keys():
    spec = _spec(3)

    async def go():
        client = ServiceClient(CostSharingService())
        await client.run(spec, "jv", _profiles(spec))
        await client.run(spec, "jv", _profiles(spec))
        status, stats = await client.stats()
        assert status == 200
        return client.service, stats

    service, stats = run(go())
    # Legacy shape unchanged; "metrics" and "spans" added.
    assert set(stats) == {"schema", "store", "batcher", "http", "metrics",
                          "spans"}
    assert set(stats["store"]) == {"capacity", "size", "lookups", "hits",
                                   "misses", "evictions",
                                   "substrate_sessions_built",
                                   "substrate_sessions_shared"}
    store = stats["store"]
    assert store["hits"] + store["misses"] == store["lookups"]
    snapshot = stats["metrics"]
    assert json.loads(json.dumps(snapshot)) == snapshot
    # The snapshot agrees with the legacy counters it mirrors.
    lookup_series, = snapshot["repro_store_lookups_total"]["series"]
    assert lookup_series["value"] == store["lookups"] == 2
    # The embedded snapshot already counts the /v1/stats dispatch itself.
    stats_requests, = (s["value"] for s in
                       snapshot["repro_http_requests_total"]["series"]
                       if s["labels"]["path"] == "/v1/stats")
    assert stats_requests == 1


# -- responses stay pure ------------------------------------------------------
def test_responses_bit_identical_to_direct_session_with_observability_on():
    spec = _spec(4)
    profiles = _profiles(spec)
    stream = io.StringIO()
    registry = MetricsRegistry()
    service = CostSharingService(registry=registry,
                                 request_log=RequestLogger(stream))

    async def go():
        client = ServiceClient(service)
        _, cold = await client.run(spec, "tree-shapley", profiles)
        _, warm = await client.run(spec, "tree-shapley", profiles)
        return cold, warm

    cold, warm = run(go())
    direct = MulticastSession(spec, registry=MetricsRegistry())
    expected = [result_to_dict(r)
                for r in direct.run_batch("tree-shapley", profiles)]
    assert cold["results"] == warm["results"] == expected
    # Telemetry observed the traffic but never leaked into the payload.
    assert registry.snapshot()
    assert "ts" not in cold and "stages" not in cold


# -- request logs -------------------------------------------------------------
def test_request_log_emits_one_json_line_per_priced_request():
    spec = _spec(5)
    stream = io.StringIO()
    logger = RequestLogger(stream, clock=lambda: 1234.5)
    service = CostSharingService(request_log=logger)

    async def go():
        client = ServiceClient(service)
        status, _ = await client.run(spec, "jv", _profiles(spec))
        assert status == 200
        status, _ = await client.request("POST", "/v1/run", {"nope": 1})
        assert status == 400

    run(go())
    lines = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert len(lines) == 2
    ok, bad = lines
    assert ok["kind"] == "run" and ok["status"] == 200
    assert ok["id"] == 1 and ok["ts"] == 1234.5
    assert ok["mechanism"] == "jv" and ok["profiles"] == 1
    from repro.service.state import scenario_key
    assert ok["scenario"] == scenario_hash(scenario_key(spec))
    assert len(ok["scenario"]) == 12
    assert set(ok["stages_ms"]) == {"parse", "queue", "build", "execute",
                                    "serialize"}
    assert all(ms >= 0 for ms in ok["stages_ms"].values())
    assert bad["kind"] == "error" and bad["status"] == 400
    assert bad["id"] == 2 and bad["path"] == "/v1/run"
    # Lines are compact sorted-key JSON: stable for grep/join tooling.
    first_line = stream.getvalue().splitlines()[0]
    assert first_line == json.dumps(ok, sort_keys=True, separators=(",", ":"))


@pytest.mark.parametrize("path", ["/v1/run", "/v1/batch"])
def test_each_item_stage_reaches_histogram_spans_and_log_alike(path):
    """One stage ledger per priced item: its ``stages_ms`` match its
    stage spans (to log rounding) and the stage histogram's increments.
    The batch's three items share one flush, so ``parse`` (per
    envelope) and ``build`` (per flush) are recorded once and copied
    into every item; queue, execute and serialize are per item."""
    spec = _spec(2)
    stream, registry, spans = io.StringIO(), MetricsRegistry(), SpanRecorder()
    service = CostSharingService(registry=registry, spans=spans,
                                 request_log=RequestLogger(stream))
    items = [{"scenario": spec.to_dict(), "mechanism": mechanism,
              "profiles": [{str(a): 4.0 for a in spec.agents()}]}
             for mechanism in ("jv", "tree-shapley", "tree-mc")]
    payload = items[0] if path == "/v1/run" else {"requests": items}

    status, _, _ = run(service.dispatch(
        "POST", path, json.dumps(payload).encode("utf-8")))
    assert status == 200
    lines = [json.loads(line) for line in stream.getvalue().splitlines()]
    assert len(lines) == (1 if path == "/v1/run" else 3)
    stages = ("parse", "queue", "build", "execute", "serialize")
    for line in lines:
        assert set(line["stages_ms"]) == set(stages)

    request, = spans.recent("request")
    children: dict[str, list[float]] = {}
    for span in spans.recent():
        if span.parent_id == request.span_id:
            children.setdefault(span.name, []).append(
                round(span.duration * 1e3, 3))
    assert set(children) == set(stages)
    for name in ("queue", "execute", "serialize"):
        assert children[name] == [line["stages_ms"][name] for line in lines]
    assert children["parse"] == [lines[0]["stages_ms"]["parse"]]
    # The flush's build span times the store lookup on its own clock.
    assert len(children["build"]) == 1

    histogram = {series["labels"]["stage"]: series for series in
                 registry.snapshot()["repro_stage_seconds"]["series"]}
    for name in stages:
        shared = name in ("parse", "build")
        if shared:
            assert len({line["stages_ms"][name] for line in lines}) == 1
        logged = [line["stages_ms"][name] for line in lines]
        assert histogram[name]["count"] == (1 if shared else len(lines))
        assert histogram[name]["sum"] * 1e3 == pytest.approx(
            logged[0] if shared else sum(logged), abs=2e-3)


# -- the concurrency bugfix ---------------------------------------------------
def test_store_counters_never_tear_under_concurrent_lookups(monkeypatch):
    """The satellite bugfix: stats() snapshots are atomic, so the lookup
    identity holds mid-build, mid-hit, mid-eviction — always."""
    import repro.service.state as state

    class FakeSession:
        def __init__(self, spec):
            time.sleep(0.001)  # widen the build window so lookups overlap

    monkeypatch.setattr(state, "build_session", lambda spec: FakeSession(spec))
    store = SessionStore(capacity=2)
    keys = [f"scenario-{i}" for i in range(4)]
    stop = threading.Event()
    torn: list[dict] = []

    def reader() -> None:
        while not stop.is_set():
            snapshot = store.stats()
            if snapshot["hits"] + snapshot["misses"] != snapshot["lookups"]:
                torn.append(snapshot)

    def worker(offset: int) -> None:
        for i in range(120):
            store.get(None, key=keys[(i + offset) % len(keys)])

    observer = threading.Thread(target=reader)
    workers = [threading.Thread(target=worker, args=(offset,))
               for offset in range(8)]
    observer.start()
    for thread in workers:
        thread.start()
    for thread in workers:
        thread.join()
    stop.set()
    observer.join()

    assert torn == []
    final = store.stats()
    assert final["lookups"] == 8 * 120
    assert final["hits"] + final["misses"] == 8 * 120
    assert final["evictions"] >= 1  # capacity 2 over 4 keys did evict


# -- loadgen report over crafted scrapes --------------------------------------
def _crafted_metrics(*, solo_flushes: int, multi_flushes: int) -> str:
    registry = MetricsRegistry()
    stage = stage_histogram(registry)
    for name in ("parse", "queue", "build", "execute", "serialize"):
        stage.labels(stage=name).observe(0.002)
        stage.labels(stage=name).observe(0.004)
    store = registry.counter("repro_store_lookups_total")
    store.inc(10)
    registry.counter("repro_store_hits_total").inc(8)
    occupancy = registry.histogram("repro_batch_occupancy",
                                   buckets=(1.0, 2.0, 4.0))
    for _ in range(solo_flushes):
        occupancy.observe(1.0)
    for _ in range(multi_flushes):
        occupancy.observe(3.0)
    return registry.render()


def _report(metrics: str | None, stats: dict | None = None) -> LoadReport:
    return LoadReport(requests=10, concurrency=2, elapsed=1.0,
                      latencies=[0.01] * 10, statuses={200: 10}, errors=[],
                      stats=stats, metrics=metrics)


def test_loadgen_metric_lines_summarize_the_scrape():
    report = _report(_crafted_metrics(solo_flushes=2, multi_flushes=1))
    lines = report.metric_lines()
    assert len(lines) == 2
    # Mean of 2ms and 4ms observations is 3ms, for every stage.
    assert lines[0] == ("metrics: stage means parse 3.00ms | queue 3.00ms | "
                        "build 3.00ms | execute 3.00ms | serialize 3.00ms")
    assert "hit-rate 80%" in lines[1]          # 8 hits / 10 lookups
    assert "multi-request flushes 1/3" in lines[1]
    assert report.lines()[-2:] == lines        # appended to the report


def test_loadgen_judges_batch_engagement_from_the_scrape():
    stats = {"store": {"hits": 8},
             "batcher": {"max_batch_size": 1}}
    engaged = _report(_crafted_metrics(solo_flushes=2, multi_flushes=1), stats)
    assert engaged.batch_engaged() is True
    assert engaged.check(expect_engaged=True) == []

    # All-solo flushes: the scrape is the ground truth, even though the
    # stats fallback would be consulted only without a scrape.
    solo = _report(_crafted_metrics(solo_flushes=3, multi_flushes=0),
                   {"store": {"hits": 8},
                    "batcher": {"max_batch_size": 4}})
    assert solo.batch_engaged() is False
    failures = solo.check(expect_engaged=True)
    assert failures and "micro-batching never engaged" in failures[0]

    # No scrape at all: fall back to the stats counter.
    unscraped = _report(None, {"store": {"hits": 8},
                               "batcher": {"max_batch_size": 4}})
    assert unscraped.batch_engaged() is None
    assert unscraped.metric_lines() == []
    assert unscraped.check(expect_engaged=True) == []


# -- the metrics-dump CLI -----------------------------------------------------
def test_metrics_dump_runs_a_spec_and_reports_sweep_telemetry(tmp_path, capsys):
    from repro.__main__ import main
    from repro.runner import ProfileSpec, SweepSpec

    spec = SweepSpec(ns=(6,), alphas=(2.0,), seeds=(0,), layouts=("uniform",),
                     mechanisms=("tree-shapley", "jv"),
                     profiles=ProfileSpec(count=1), side=5.0)
    spec_path = tmp_path / "sweep.json"
    spec_path.write_text(spec.to_json())
    out_path = tmp_path / "metrics.json"

    rc = main(["metrics-dump", "--spec", str(spec_path),
               "--out", str(out_path)])
    capsys.readouterr()
    assert rc == 0
    payload = json.loads(out_path.read_text())
    assert payload["rows"] == 2
    metrics = payload["metrics"]
    rows_series, = metrics["repro_sweep_rows_total"]["series"]
    assert rows_series["value"] >= 2  # the default registry accumulates
    mechanisms = {s["labels"]["mechanism"]
                  for s in metrics["repro_sweep_item_seconds"]["series"]}
    assert {"tree-shapley", "jv"} <= mechanisms
    # The facade published its artifact-build timings too.
    assert "repro_session_build_seconds" in metrics


def test_metrics_dump_requires_exactly_one_source(capsys):
    from repro.__main__ import main

    assert main(["metrics-dump"]) == 2
    assert main(["metrics-dump", "--port", "1", "--spec", "x.json"]) == 2
    err = capsys.readouterr().err
    assert "exactly one of --port or --spec" in err
