"""Loadgen resilience: 429 backpressure is retried (bounded,
Retry-After honored), and a run where nothing completes still renders a
well-formed report with a failing verdict — never a crash."""

from __future__ import annotations

import math

import pytest

from repro.service.loadgen import (
    RETRY_AFTER_CAP,
    LoadReport,
    ReportStats,
    _retry_delay,
    run_loadgen,
)
from tests.test_service_cli import ServerThread


class TestRetryDelay:
    def test_honors_the_header_within_bounds(self):
        assert _retry_delay("0.2") == 0.2
        assert _retry_delay("0") == 0.0
        assert _retry_delay(str(RETRY_AFTER_CAP * 10)) == RETRY_AFTER_CAP
        assert _retry_delay("-1") == 0.0

    def test_missing_or_garbage_header_falls_back(self):
        assert _retry_delay(None) == 0.05
        assert _retry_delay("soon") == 0.05


class TestReportStatsOnEmpty:
    def test_percentiles_are_nan_not_errors(self):
        stats = ReportStats.over([], 0.5)
        assert math.isnan(stats.percentile(0.5))
        assert math.isnan(stats.percentile(0.95))
        assert math.isnan(stats.max)

    def test_throughput_is_zero_not_a_division_error(self):
        assert ReportStats.over([], 0.5).throughput == 0.0
        assert ReportStats.over([0.1], 0.0).throughput == 0.0
        assert ReportStats.over([0.1, 0.2], 1.0).throughput == 2.0

    def test_empty_report_lines_and_check(self):
        report = LoadReport(requests=4, concurrency=2, elapsed=0.2,
                            latencies=[], statuses={0: 4},
                            errors=["request 0: refused"], stats=None)
        lines = report.lines()
        assert "latency: no samples" in lines
        assert report.throughput == 0.0
        failures = report.check()
        assert any("no requests completed" in f for f in failures)
        assert any("all-200" in f for f in failures)


def test_429_backpressure_is_retried_to_success():
    # queue_limit=1 with concurrent workers forces admission rejections;
    # the bounded retry loop must turn them into eventual 200s.
    with ServerThread(queue_limit=1, retry_after=0.02) as server:
        report = run_loadgen(host="127.0.0.1", port=server.port, requests=12,
                             concurrency=4, n=6, alpha=2.0, side=5.0,
                             seeds=[0], layouts=["uniform"],
                             mechanisms=["tree-shapley"], profile_count=1,
                             timeout=30.0)
    assert report.statuses == {200: 12}
    assert report.retries > 0           # the limit actually bit
    assert report.check() == []
    assert any("retries" in line for line in report.lines())
    assert report.config["retry_limit"] > 0


def test_retry_limit_zero_surfaces_the_429s():
    with ServerThread(queue_limit=1, retry_after=0.02) as server:
        report = run_loadgen(host="127.0.0.1", port=server.port, requests=12,
                             concurrency=4, n=6, alpha=2.0, side=5.0,
                             seeds=[0], layouts=["uniform"],
                             mechanisms=["tree-shapley"], profile_count=1,
                             timeout=30.0, retry_limit=0)
    assert report.retries == 0
    assert report.statuses.get(429, 0) > 0  # terminal now, but recorded
    assert any("429" in f for f in report.check())


def test_unreachable_server_yields_empty_but_wellformed_report(capsys):
    with ServerThread() as server:
        dead_port = server.port
    report = run_loadgen(host="127.0.0.1", port=dead_port, requests=3,
                         concurrency=2, n=5, alpha=2.0, side=5.0, seeds=[0],
                         layouts=["uniform"], mechanisms=["tree-shapley"],
                         profile_count=1, timeout=2.0)
    assert report.completed == 0
    assert report.throughput == 0.0
    assert math.isnan(report.percentile(0.95))
    for line in report.lines():      # rendering must not raise
        assert isinstance(line, str)
    failures = report.check()
    assert any("no requests completed" in f for f in failures)


def test_trace_mode_against_queue_limited_server():
    # The trace schedule rides the same retry loop: every (group, epoch)
    # cell must end 200 even under queue_limit=1 backpressure.
    from repro.traces import generate_trace

    trace = generate_trace(n=6, groups=2, epochs=2, seed=0)
    with ServerThread(queue_limit=1, retry_after=0.02) as server:
        report = run_loadgen(host="127.0.0.1", port=server.port, requests=0,
                             concurrency=3, n=0, alpha=2.0, side=5.0,
                             seeds=[], layouts=[], mechanisms=["jv"],
                             profile_count=1, timeout=30.0, trace=trace,
                             trace_repeats=2)
    assert report.requests == 8  # 2 groups x 2 epochs x 2 repeats
    assert report.statuses == {200: 8}
    assert report.check(expect_groups=2) == []
    assert len(report.group_lines()) == 2


def test_expect_groups_fails_on_unpriced_cells():
    report = LoadReport(
        requests=2, concurrency=1, elapsed=0.1, latencies=[0.01, 0.01],
        statuses={200: 2}, errors=[], stats=None,
        group_rows={"g0": {0: {"count": 2, "cost": 1.0, "charged": 1.0,
                               "receivers": 1.0},
                           1: {"count": 0, "cost": 0.0, "charged": 0.0,
                               "receivers": 0.0}}})
    failures = report.check(expect_groups=2)
    assert any("expected >= 2 groups" in f for f in failures)
    assert any("unpriced epochs [1]" in f for f in failures)
    assert report.check(expect_groups=1) != []  # unpriced epoch still fails


def test_build_trace_requests_validation():
    from repro.service.loadgen import build_trace_requests
    from repro.traces import generate_trace

    trace = generate_trace(n=6, groups=2, epochs=2, seed=0)
    schedule = build_trace_requests(trace, mechanisms=["jv"],
                                    profile_count=1)
    assert len(schedule) == 4
    assert schedule == build_trace_requests(trace, mechanisms=["jv"],
                                            profile_count=1)  # deterministic
    assert {(r["group"], r["epoch"]) for r in schedule} == {
        (g, e) for g in ("g0", "g1") for e in (0, 1)}
    with pytest.raises(ValueError, match="repeats"):
        build_trace_requests(trace, mechanisms=["jv"], profile_count=1,
                             repeats=0)
    with pytest.raises(ValueError, match="mechanism"):
        build_trace_requests(trace, mechanisms=[], profile_count=1)
