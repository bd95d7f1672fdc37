"""Self-tests of the benchmark's own code (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import pathlib
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (str(ROOT / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

from driver import (  # noqa: E402
    MIN_P95_SAMPLES,
    Attempt,
    PhaseResult,
    closed_rate,
    percentile_ms,
    poisson_schedule,
    run_open_loop,
)
from servers import ServerProcess, group_members  # noqa: E402
from workloads import (  # noqa: E402
    FLEET_SHARDS,
    WORKLOADS,
    build_bodies,
    canonical,
    first_mismatch,
    schedule_seed,
)

from repro.service.fleet import scenario_route_key  # noqa: E402

import run  # noqa: E402


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_bodies_and_arrivals(workload):
    first = [canonical(body) for body in build_bodies(workload, 7)]
    again = [canonical(body) for body in build_bodies(workload, 7)]
    other = [canonical(body) for body in build_bodies(workload, 8)]
    assert first == again
    assert first != other
    arrivals = poisson_schedule(seed=schedule_seed(7, "open"),
                                rate=WORKLOADS[workload].rate, count=300,
                                pool=len(first))
    assert arrivals == poisson_schedule(seed=schedule_seed(7, "open"),
                                        rate=WORKLOADS[workload].rate,
                                        count=300, pool=len(first))
    assert arrivals != poisson_schedule(seed=schedule_seed(8, "open"),
                                        rate=WORKLOADS[workload].rate,
                                        count=300, pool=len(first))
    assert [offset for offset, _ in arrivals] == sorted(o for o, _ in arrivals)


def test_schedule_rate_matches_offered_rate():
    arrivals = poisson_schedule(seed=1, rate=20.0, count=5000, pool=4)
    assert arrivals[-1][0] == pytest.approx(4999 / 20.0)
    gaps = [b[0] - a[0] for a, b in zip(arrivals, arrivals[1:])]
    assert max(gaps) > 5 * min(gaps)  # still bursty, not a metronome
    assert [body for _, body in arrivals[:6]] == [0, 1, 2, 3, 0, 1]


def test_p95_refused_below_the_sample_floor():
    samples = [i / 1000 for i in range(MIN_P95_SAMPLES - 1)]
    with pytest.raises(ValueError, match="needs >= 200 samples"):
        percentile_ms(samples, 0.95)
    assert percentile_ms(samples, 0.50) == pytest.approx(99.0)
    assert percentile_ms(samples + [1.0], 0.95) > 0


class FakeServer:
    """Answers ``b"slow"`` after 50 ms, ``b"fail"`` with a 500,
    ``b"drop"`` with a transport error, anything else at once."""

    def __call__(self, body: bytes):
        if body == b"slow":
            time.sleep(0.05)
        if body == b"fail":
            return 500, b'{"error": "x"}', None
        if body == b"drop":
            return 0, b"ConnectionResetError()", None
        return 200, b"{}", None


def test_failed_and_late_requests_count_against_attempted():
    bodies = [b"slow", b"slow", b"ok", b"fail", b"drop", b"ok"]
    # Everything is due at once: with two connections busy on the slow
    # pair, the rest wait, and their latency runs from the due time.
    schedule = [(0.0, i) for i in range(len(bodies))]
    phase = run_open_loop(schedule, bodies, [FakeServer(), FakeServer()])
    assert phase.attempted == 6
    assert phase.failed == 2
    assert [a.index for a in phase.attempts] == list(range(6))
    latencies = phase.latencies()
    assert math.isinf(latencies[3]) and math.isinf(latencies[4])
    # Queued behind a 50 ms request, yet not blamed on the generator.
    assert latencies[2] >= 0.045
    assert phase.attempts[2].late < 0.02
    assert latencies[5] >= 0.045


def test_closed_loop_rate_is_a_median_over_segments():
    def segment(started, gaps):
        done, attempts = started, []
        for i, gap in enumerate(gaps):
            done += gap
            attempts.append(Attempt(index=i, body=0, status=200, latency=gap,
                                    late=0.0, raw=b"", trace_id=None, done=done))
        return PhaseResult(attempts=attempts, started=started)

    # Three segments at 100/s and one stalled by a neighbour at 10/s:
    # the stall must not drag the figure down.
    phases = [segment(10.0 * k, [0.01] * 50) for k in range(3)]
    phases.append(segment(40.0, [0.1] * 50))
    assert closed_rate(phases) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        closed_rate([PhaseResult(started=0.0)])


def test_trace_groups_split_evenly_over_the_fleet():
    from repro.service.ring import DEFAULT_REPLICAS, HashRing

    ring = HashRing(FLEET_SHARDS, replicas=DEFAULT_REPLICAS)
    bodies = build_bodies("trace-fleet", 3)
    routes = {body["group"]: ring.route(scenario_route_key(canonical(body)))
              for body in bodies}
    assert sorted(routes.values()) == ["w0", "w0", "w1", "w1"]


def test_mismatch_is_canonical_not_textual():
    expected = [canonical({"a": 1, "b": [1, 2]})]

    class A:
        def __init__(self, raw, status=200):
            self.index, self.body, self.status, self.raw = 0, 0, status, raw

    assert first_mismatch([A(b'{"b": [1, 2], "a": 1}\n')], expected) is None
    assert first_mismatch([A(b'{"a": 2, "b": [1, 2]}')], expected) is not None
    assert first_mismatch([A(b"not json", status=500)], expected) is None


def test_metric_catalogue_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_stop_reaps_the_whole_process_tree():
    # A parent that spawns a grandchild and then prints a ready line —
    # the shape of `repro fleet` (router plus workers).
    script = ("import subprocess, sys, time; "
              "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']); "
              "print('serving on http://127.0.0.1:1', flush=True); time.sleep(60)")
    server = ServerProcess([sys.executable, "-c", script], cwd=str(ROOT),
                           env={}, ready_timeout=30)
    server.start()
    pgid = server.process.pid
    deadline = time.monotonic() + 10
    while len(group_members(pgid)) < 2 and time.monotonic() < deadline:
        time.sleep(0.02)
    assert len(group_members(pgid)) == 2
    assert server.peak_rss_mb() > 0
    server.stop(grace=5)
    assert group_members(pgid) == []


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tree-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
