#!/usr/bin/env python3
"""Serving benchmark: the real server over real sockets, every answer checked.

Run from the repository root::

    python3 perfbench/run.py --workload tree-hot --seed 1 --seconds 16 --trace 0

Workloads (see ``perfbench/workloads.py``): ``tree-hot``, ``jv-dense``,
``trace-fleet``.  Each run boots fresh server processes exactly as a user
would (``python -m repro serve|fleet --port 0``, CLI defaults otherwise),
warms them with one sequential pass over the workload's request pool,
and measures:

``--trace 0`` (end to end, tracing off)
    The server is set up three times (launch to ready, plus the warm-up
    pass; ``setup_s`` is the median).  The third one settles (on
    ``serve``: three seconds of open-loop traffic, the adaptive
    controller's transient), then runs four rounds of an open-loop
    segment and a closed-loop segment.  The open-loop segments together are one seeded Poisson
    schedule at the workload's fixed rate (``p50_ms``, ``p95_ms``, timed
    from each request's due time): 70% of ``--seconds``, stretched to
    the workload's request floor (at least 200, so ten samples lie
    beyond the p95).  The closed-loop segments, on two connections,
    share 30% of ``--seconds`` (``throughput_rps``, the median over the
    segments).  ``rss_mb`` is the peak RSS summed over the process tree.
``--trace 1`` (per layer)
    One untraced and one traced server (``--span-log``) each settle and
    then take half the open-loop schedule; spans, ``/metrics`` and
    ``/v1/stats`` split the time into stages, and an in-process replay
    of the same bodies splits ``execute`` (see ``perfbench/layers.py``).

The benchmark's own tests: ``python3 -m pytest perfbench -q``.

Every 200 answer of every phase is compared with a cold in-process
oracle in canonical JSON; any mismatch or failed request makes the run
exit 1 after printing the first differing request.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
A host that cannot run a workload (``trace-fleet`` needs two cores)
prints ``SKIPPED`` with the reason and exits 3, never a number.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import http.client
import json
import math
import os
import pathlib
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

SETUPS = 3
SETTLE_SECONDS = 3.0    # open-loop traffic before measuring on `serve`: its
                        # adaptive controller moves x1.5 per 0.5 s tick
                        # (fleet workers run --no-adapt: nothing to settle)
OPEN_SHARE = 0.7        # of --seconds at the offered rate (or the floor)
CLOSED_SHARE = 0.3      # of --seconds
ROUNDS = 4              # open/closed segment pairs, interleaved
MIN_TRACED = 100        # per traced-run phase; both phases together >= 200

END_TO_END = {"setup_s": "s", "p50_ms": "ms", "p95_ms": "ms",
              "throughput_rps": "1/s", "rss_mb": "MB"}
PER_LAYER = {
    "server.parse_ms": "ms", "server.execute_ms": "ms",
    "server.serialize_ms": "ms",
    "server.unaccounted_ms": "ms", "server.wire_ms": "ms",
    "batching.queue_ms": "ms", "batching.window_ms": "ms",
    "batching.occupancy": "requests", "observability.adapt_decisions": "count",
    "state.build_ms": "ms", "state.hit_frac": "frac",
    "state.session_builds": "count", "fleet.forward_ms": "ms",
    "fleet.route_key_ms": "ms", "session.run_ms": "ms",
    "session.build_ms": "ms", "core.served_tree_ms": "ms",
    "core.served_tree_frac": "frac", "engine.xi_misses": "count",
    "engine.xi_hit_frac": "frac", "mechanism.drop_rounds": "count",
    "traces.run_epoch_ms": "ms", "traces.substrate_built": "count",
    "traces.substrate_shared": "count",
    "observability.trace_overhead_frac": "frac",
    "loadgen.late_p95_ms": "ms", "loadgen.sent": "count",
    "loadgen.ok": "count", "loadgen.failed": "count",
}


class RunFailed(Exception):
    """A run that measured nothing trustworthy."""


def provenance(workload, seed: int, commands: list[list[str]]) -> dict:
    import numpy

    from workloads import cores

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None  # not a git checkout
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload.name, "seed": seed, "cores": cores(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "platform": platform.platform(), "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "server_commands": [" ".join(c) for c in commands],
    }


def server_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(SRC) + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else str(SRC))
    return env


def get(server, path: str) -> str:
    connection = http.client.HTTPConnection(server.host, server.port,
                                            timeout=30)
    try:
        connection.request("GET", path)
        response = connection.getresponse()
        text = response.read().decode("utf-8")
        if response.status != 200:
            raise RunFailed(f"GET {path} answered {response.status}")
        return text
    finally:
        connection.close()


class Run:
    """One benchmark invocation: inputs, servers, phases, verdict."""

    def __init__(self, workload, seed: int, seconds: int) -> None:
        from driver import poisson_schedule
        from workloads import build_bodies, canonical, schedule_seed

        self.workload, self.seconds = workload, seconds
        self.bodies = build_bodies(workload.name, seed)
        self.encoded = [canonical(body) for body in self.bodies]
        n_open = max(workload.min_open,
                     math.ceil(workload.rate * seconds * OPEN_SHARE))
        self.schedule = poisson_schedule(
            seed=schedule_seed(seed, "open"), rate=workload.rate,
            count=n_open, pool=len(self.bodies))
        self.settle_schedule = poisson_schedule(
            seed=schedule_seed(seed, "settle"), rate=workload.rate,
            count=math.ceil(workload.rate * SETTLE_SECONDS),
            pool=len(self.bodies))
        self.phases = []
        self.commands: list[list[str]] = []
        self.scratch = pathlib.Path(tempfile.mkdtemp(prefix=".perfbench-",
                                                     dir=ROOT))

    def close(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    # -- servers -------------------------------------------------------------
    def boot(self, span_log: str | None = None):
        """Launch a server and warm it; returns ``(server, setup seconds)``.
        The caller stops the server."""
        from driver import HttpTransport, run_sequential
        from servers import ServerProcess

        argv = self.workload.server_argv(span_log)
        if argv not in self.commands:
            self.commands.append(argv)
        server = ServerProcess(argv, cwd=str(ROOT), env=server_env())
        started = time.perf_counter()
        try:
            server.start()
            send = HttpTransport(server.host, server.port)
            try:
                warm = run_sequential(self.encoded, send)
            finally:
                send.close()
            self.phases.append(warm)
            if warm.failed:
                raise RunFailed(f"warm-up: {warm.failed} of {warm.attempted} "
                                "requests failed")
        except BaseException:
            server.stop()
            raise
        return server, time.perf_counter() - started

    def settle(self, server) -> None:
        """Open-loop traffic before measuring, where a controller adapts."""
        if self.workload.mode == "serve":
            self.open_loop(server, self.settle_schedule)

    def open_loop(self, server, schedule):
        from driver import CONNECTIONS, HttpTransport, run_open_loop

        transports = [HttpTransport(server.host, server.port)
                      for _ in range(CONNECTIONS)]
        try:
            phase = run_open_loop(schedule, self.encoded, transports)
        finally:
            for send in transports:
                send.close()
        self.phases.append(phase)
        return phase

    def closed_loop(self, server, seconds: float):
        from driver import CONNECTIONS, HttpTransport, run_closed_loop

        transports = [HttpTransport(server.host, server.port)
                      for _ in range(CONNECTIONS)]
        try:
            phase = run_closed_loop(list(range(len(self.encoded))), self.encoded,
                                    transports, seconds=seconds)
        finally:
            for send in transports:
                send.close()
        self.phases.append(phase)
        return phase

    # -- the two kinds of run ------------------------------------------------
    def end_to_end(self) -> dict:
        from driver import closed_rate, percentile_ms

        setups = []
        server = None
        opened, closed = [], []
        chunk = math.ceil(len(self.schedule) / ROUNDS)
        try:
            for _ in range(SETUPS):
                if server is not None:
                    server.stop()
                server, setup = self.boot()
                setups.append(setup)
            self.settle(server)
            for start in range(0, len(self.schedule), chunk):
                opened.append(self.open_loop(
                    server, self.schedule[start:start + chunk]))
                closed.append(self.closed_loop(
                    server, self.seconds * CLOSED_SHARE / ROUNDS))
            rss = server.peak_rss_mb()
        finally:
            if server is not None:
                server.stop()
        latencies = [x for phase in opened for x in phase.latencies()]
        self.report_generator(opened)
        return {
            "setup_s": statistics.median(setups),
            "p50_ms": percentile_ms(latencies, 0.50),
            "p95_ms": percentile_ms(latencies, 0.95),
            "throughput_rps": closed_rate(closed),
            "rss_mb": rss,
        }

    def traced(self, expected: list[bytes]) -> dict:
        from driver import percentile_ms
        from layers import replay_in_process, scrape_metrics, span_metrics
        from repro.observability import load_span_logs

        half = max(MIN_TRACED, len(self.schedule) // 2)
        schedule = self.schedule[:half]
        server, _ = self.boot()
        try:
            self.settle(server)
            plain = self.open_loop(server, schedule)
        finally:
            server.stop()
        span_dir = self.scratch / "spans"
        span_log = (str(span_dir) if self.workload.mode == "fleet"
                    else str(self.scratch / "serve.spans.jsonl"))
        server, _ = self.boot(span_log)
        try:
            self.settle(server)
            before = get(server, "/metrics")
            traced = self.open_loop(server, schedule)
            after = get(server, "/metrics")
            stats = json.loads(get(server, "/v1/stats"))
        finally:
            server.stop()
        logs = (sorted(str(p) for p in span_dir.glob("*.jsonl"))
                if self.workload.mode == "fleet" else [span_log])
        spans, _malformed = load_span_logs(logs)
        measured = {a.trace_id: a.latency for a in traced.ok if a.trace_id}
        metrics = {**scrape_metrics(before, after, stats),
                   **span_metrics(spans, measured)}
        joined = metrics.pop("_joined")
        if joined < len(traced.ok):
            raise RunFailed(f"only {joined} of {len(traced.ok)} traced "
                            "requests joined to a worker request span")
        replayed, mismatch = replay_in_process(self.bodies, self.encoded,
                                               expected)
        if mismatch is not None:
            raise RunFailed(f"mismatch: {mismatch}")
        metrics.update(replayed)
        plain_p50 = percentile_ms(plain.latencies(), 0.50)
        metrics["observability.trace_overhead_frac"] = (
            (percentile_ms(traced.latencies(), 0.50) - plain_p50) / plain_p50)
        metrics.update(self.report_generator([plain, traced]))
        return metrics

    def report_generator(self, phases) -> dict:
        """The open-loop driver's own health: how late it sent, and what
        it sent.  Printed on every run; returned as loadgen.* metrics."""
        from driver import percentile_ms

        late = [a.late for phase in phases for a in phase.attempts]
        sent = sum(phase.attempted for phase in phases)
        failed = sum(phase.failed for phase in phases)
        out = {"loadgen.late_p95_ms": percentile_ms(late, 0.95),
               "loadgen.sent": float(sent), "loadgen.ok": float(sent - failed),
               "loadgen.failed": float(failed)}
        print("generator: " + json.dumps(out, sort_keys=True), flush=True)
        return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Serving benchmark over real sockets (see module docs).")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, cores, first_mismatch, oracle

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be >= 1", file=sys.stderr)
        return 2
    if cores() < workload.min_cores:
        print(f"SKIPPED: {workload.name} needs >= {workload.min_cores} cores, "
              f"host has {cores()}")
        print(json.dumps({"skipped": f"needs >= {workload.min_cores} cores"}))
        return 3

    # A terminated benchmark still tears its server process groups down:
    # SIGTERM becomes SystemExit, which unwinds through every finally.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    run = Run(workload, args.seed, args.seconds)
    try:
        expected = oracle(run.bodies)
        if args.trace:
            values, units = run.traced(expected), PER_LAYER
        else:
            values, units = run.end_to_end(), END_TO_END
    except RunFailed as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    finally:
        run.close()
    print("provenance: " + json.dumps(provenance(workload, args.seed,
                                                 run.commands), sort_keys=True))
    attempts = [a for phase in run.phases for a in phase.attempts]
    failed = sum(1 for a in attempts if a.status != 200)
    mismatch = first_mismatch(attempts, expected)
    if mismatch is not None:
        print(f"MISMATCH: {mismatch}", file=sys.stderr)
    missing = sorted(set(units) - set(values))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    correct = mismatch is None and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": len(attempts), "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
