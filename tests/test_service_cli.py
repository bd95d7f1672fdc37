"""The ``serve`` and ``loadgen`` CLI surfaces, end to end.

``loadgen`` runs in-process against a real socket server hosted on a
background thread (covering the HTTP layer, the closed-loop driver and
the report checks); one test additionally boots ``python -m repro serve``
as a subprocess — the exact shape the CI smoke job uses.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import pathlib
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.__main__ import main
from repro.api import ScenarioSpec
from repro.service import CostSharingService, ServiceServer
from repro.service.loadgen import LoadReport, build_requests, run_loadgen

REPO_SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


class ServerThread:
    """A real ServiceServer on an ephemeral port, on its own loop/thread."""

    def __init__(self, **service_kwargs):
        self.service = CostSharingService(**service_kwargs)
        self.port: int | None = None
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self._loop)
        server = ServiceServer(self.service, port=0)
        self._loop.run_until_complete(server.start())
        self.port = server.port
        self._server = server
        self._started.set()
        self._loop.run_forever()
        self._loop.run_until_complete(server.close())
        self._loop.close()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        assert self._started.wait(timeout=10.0), "server did not start"
        return self

    def __exit__(self, *exc_info) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)


def test_build_requests_is_deterministic_and_validates():
    kwargs = dict(requests=8, n=6, alpha=2.0, side=5.0, seeds=[0, 1],
                  layouts=["uniform", "ring"], mechanisms=["jv", "tree-shapley"],
                  profile_count=2)
    first = build_requests(**kwargs)
    second = build_requests(**kwargs)
    assert first == second  # byte-identical schedules
    assert len(first) == 8
    layouts = {request["scenario"]["layout"] for request in first}
    assert layouts == {"uniform", "ring"}
    with pytest.raises(ValueError):
        build_requests(**{**kwargs, "requests": 0})
    with pytest.raises(ValueError):
        build_requests(**{**kwargs, "mechanisms": []})


def test_loadgen_against_real_server_engages_the_warm_paths(capsys):
    with ServerThread(cache_size=8) as server:
        code = main(["loadgen", "--port", str(server.port), "--requests", "16",
                     "--concurrency", "4", "--n", "8",
                     "--mechanisms", "tree-shapley,jv", "--expect-engaged"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert "loadgen: 16 requests" in out
    assert "latency: p50" in out
    assert "status: 200:16" in out
    assert "stats: store" in out


def test_loadgen_report_checks():
    good = LoadReport(requests=2, concurrency=1, elapsed=0.1,
                      latencies=[0.01, 0.02], statuses={200: 2}, errors=[],
                      stats={"store": {"hits": 1, "coalesced": 0},
                             "batcher": {"max_batch_size": 2}})
    assert good.check(expect_engaged=True) == []
    assert good.percentile(0.5) in (0.01, 0.02)
    assert good.throughput > 0
    bad = LoadReport(requests=2, concurrency=1, elapsed=0.1,
                     latencies=[0.01], statuses={200: 1, 429: 1}, errors=[],
                     stats={"store": {"hits": 0, "coalesced": 0},
                            "batcher": {"max_batch_size": 1}})
    failures = bad.check(expect_engaged=True)
    assert len(failures) == 3  # non-200s + cold store + no batching
    no_stats = LoadReport(requests=1, concurrency=1, elapsed=0.1,
                          latencies=[0.01], statuses={200: 1}, errors=[],
                          stats=None)
    assert no_stats.check() == []
    assert any("stats" in f for f in no_stats.check(expect_engaged=True))


def test_loadgen_cli_arg_errors(capsys):
    # Unknown mechanisms mirror the run/sweep CLI contract: exit 2 with
    # the registry listed on stderr.
    code = main(["loadgen", "--port", "1", "--mechanisms", "bogus-mech"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown mechanisms" in err and "tree-shapley" in err
    code = main(["loadgen", "--port", "1", "--seeds", "zero"])
    assert code == 2
    assert "--seeds" in capsys.readouterr().err


def test_loadgen_unreachable_server_is_a_clean_error():
    with ServerThread() as server:
        dead_port = server.port  # live now, dead after the context exits
    report = run_loadgen(host="127.0.0.1", port=dead_port, requests=2,
                         concurrency=1, n=5, alpha=2.0, side=5.0, seeds=[0],
                         layouts=["uniform"], mechanisms=["tree-shapley"],
                         profile_count=1, timeout=2.0)
    assert report.statuses.get(0, 0) == 2  # transport failures, not a crash
    assert report.check()  # and the verdict is a failure, not silence


def test_serve_cli_rejects_bad_limits(capsys):
    assert main(["serve", "--queue-limit", "0"]) == 2
    assert "queue_limit" in capsys.readouterr().err


def test_run_server_coroutine_serves_and_cancels_cleanly():
    async def go():
        from repro.service import run_server

        bound = {}
        service = CostSharingService()
        task = asyncio.ensure_future(
            run_server(service, "127.0.0.1", 0, ready=lambda s: bound.update(port=s.port)))
        while "port" not in bound:
            await asyncio.sleep(0.01)
        reader, writer = await asyncio.open_connection("127.0.0.1", bound["port"])
        writer.write(b"GET /v1/healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        await writer.drain()
        status_line = await reader.readline()
        assert b"200" in status_line
        writer.close()
        task.cancel()
        await task  # run_server swallows the cancel and closes cleanly

    asyncio.run(go())


def test_serve_subprocess_answers_a_loadgen_burst(tmp_path):
    env = {**os.environ,
           "PYTHONPATH": f"{REPO_SRC}{os.pathsep}" + os.environ.get("PYTHONPATH", "")}
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    try:
        line = process.stdout.readline()
        assert "serving on http://" in line, line
        port = int(line.strip().rsplit(":", 1)[1])
        deadline = time.monotonic() + 10.0
        report = None
        while time.monotonic() < deadline:
            report = run_loadgen(host="127.0.0.1", port=port, requests=10,
                                 concurrency=3, n=6, alpha=2.0, side=5.0,
                                 seeds=[0], layouts=["uniform"],
                                 mechanisms=["tree-shapley"], profile_count=1,
                                 timeout=10.0)
            if report.statuses.get(200, 0) == 10:
                break
        assert report is not None and report.statuses.get(200, 0) == 10
        assert report.check() == []
    finally:
        process.terminate()
        process.wait(timeout=10.0)


def test_serve_exits_cleanly_on_a_second_sigterm_while_draining():
    """The first SIGTERM lands while a cold request is in flight, the
    second while the server still drains it (a process-group kill then
    a supervisor's ``terminate()``): ``serve`` finishes its shutdown
    and exits 0, with no traceback."""
    env = {**os.environ,
           "PYTHONPATH": f"{REPO_SRC}{os.pathsep}" + os.environ.get("PYTHONPATH", "")}
    spec = ScenarioSpec.from_random(n=400, alpha=2.0, seed=0)
    body = json.dumps({"scenario": spec.to_dict(), "mechanism": "jv",
                       "profiles": [{str(a): 1.0 for a in spec.agents()}]})
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, env=env)
    try:
        line = process.stdout.readline()
        assert "serving on http://" in line, line
        port = int(line.strip().rsplit(":", 1)[1])
        # The cold build (~1 s) runs on the server's worker thread; its
        # answer is never read.
        with socket.create_connection(("127.0.0.1", port), timeout=10.0) as client:
            client.sendall(f"POST /v1/run HTTP/1.1\r\nHost: t\r\n"
                           f"Content-Length: {len(body)}\r\n\r\n{body}".encode())
            deadline = time.monotonic() + 30.0
            in_flight = 0
            while not in_flight and time.monotonic() < deadline:
                connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
                try:
                    connection.request("GET", "/v1/stats")
                    stats = json.loads(connection.getresponse().read())
                finally:
                    connection.close()
                in_flight = stats["http"]["in_flight"]
            assert in_flight == 1
            process.send_signal(signal.SIGTERM)
            time.sleep(0.3)
            process.send_signal(signal.SIGTERM)
            output, _ = process.communicate(timeout=60.0)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert process.returncode == 0, output
    assert "Traceback" not in output, output
