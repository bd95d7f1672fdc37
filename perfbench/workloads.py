"""The three serving workloads, their inputs and their cold oracle.

A workload is a fixed scenario set plus a seeded request stream.  The
scenarios (layouts, the trace) are constants of the workload, so every
seed loads the same geometry; the seed picks which stretch of
:mod:`repro.service.loadgen`'s deterministic request stream over them
is replayed (the utility profiles) and draws the arrival schedule.  The
server only ever sees the generated bodies, built by the repo's own
``build_requests`` / ``build_trace_requests``.

=============  ============================  ==========  =================
workload       server                        offered     stresses
=============  ============================  ==========  =================
tree-hot       ``serve`` (adaptive default)  20 req/s    HTTP, protocol,
                                                         batch window,
                                                         controller
jv-dense       ``serve``                     8 req/s     execute: served
                                                         tree (KMB + power)
trace-fleet    ``fleet --workers 2``         12 req/s    router hop, double
                                                         parse, epoch
                                                         replay, shards
=============  ============================  ==========  =================

The offered rates are constants, never recomputed per run, so a faster
server shows up as lower latency at the same load.  tree-hot offers
about half the closed-loop throughput v1.10.0 sustained on a 2-core
host (~47 req/s); its latency is mostly the adaptive batch window, so
load barely moves it.  jv-dense and trace-fleet are CPU-bound
and offer at most a third of theirs: on a shared host whose capacity
halved for minutes at a time (two-profile jv-dense: 19 then 9 req/s),
half capacity sits at the knee, where queueing amplifies every swing —
the 10-second p95 of trace-fleet at 25 req/s ranged 82-150 ms within one
run.

The oracle prices every body in-process and cold — a fresh
:class:`~repro.api.session.MulticastSession` per body for the static
workloads, a fresh non-incremental
:class:`~repro.dynamic.session.DynamicSession` per group replayed in
epoch order for the trace — and renders the payload the server must
answer byte-for-byte (canonical JSON).
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass

from repro.api.session import MulticastSession
from repro.api.spec import seed_from_text
from repro.dynamic.session import DynamicSession
from repro.service.fleet import scenario_route_key
from repro.service.loadgen import build_requests, build_trace_requests
from repro.service.protocol import parse_run_request, run_payload
from repro.service.ring import DEFAULT_REPLICAS, HashRing
from repro.traces import generate_trace


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str             # "serve" or "fleet"
    rate: float           # offered open-loop rate, requests per second
    min_open: int = 200   # open-loop requests at least (p95: >= 10 beyond)
    min_cores: int = 1

    def server_argv(self, span_log: str | None = None) -> list[str]:
        """The server command: CLI defaults apart from ``--port 0``
        (and the span log on the traced run)."""
        argv = [sys.executable, "-m", "repro", self.mode, "--port", "0"]
        if self.mode == "fleet":
            argv += ["--workers", "2"]
        if span_log is not None:
            argv += ["--span-log", span_log]
        return argv


WORKLOADS = {
    w.name: w for w in (
        Workload("tree-hot", "serve", 20.0, min_open=300),
        Workload("jv-dense", "serve", 8.0),
        Workload("trace-fleet", "fleet", 12.0, min_open=240, min_cores=2),
    )
}

N_STATIONS = 60
# tree-hot: 4 scenario keys (all stay warm in the LRU), 8 bodies each.
TREE_SCENARIO_SEEDS, TREE_POOL = (11, 12, 13, 14), 32
# jv-dense: 2 keys, every station in the profile (~53 of 59 served), one
# profile per request: the served-tree share of execute is per profile,
# and half the work per request keeps 8 req/s clear of the knee when a
# shared host halves the CPU (two profiles ran at 9-19 req/s closed-loop).
JV_SCENARIO_SEEDS, JV_POOL, JV_PROFILES = (21, 22), 16, 1
TRACE_SHAPE = {"n": 48, "groups": 4, "epochs": 8, "handover_rate": 0.1}
FLEET_SHARDS = ("w0", "w1")
# How many stretches of the request stream seeds choose among.
STREAM_WINDOWS = 32


def _derived(seed: int, label: str, bits: int = 31) -> int:
    return seed_from_text(f"perfbench|seed:{seed}|{label}") % (1 << bits)


def build_bodies(workload: str, seed: int) -> list[dict]:
    """The workload's request pool (wire dicts), a pure function of
    ``seed``: stretch ``k`` of loadgen's request stream over the
    workload's fixed scenarios, ``k`` drawn from the seed."""
    window = _derived(seed, "stream") % STREAM_WINDOWS
    if workload == "tree-hot":
        return build_requests(
            requests=(window + 1) * TREE_POOL, n=N_STATIONS, alpha=2.0,
            side=10.0, seeds=list(TREE_SCENARIO_SEEDS), layouts=["uniform"],
            mechanisms=["tree-shapley"], profile_count=2)[-TREE_POOL:]
    if workload == "jv-dense":
        return build_requests(
            requests=(window + 1) * JV_POOL, n=N_STATIONS, alpha=2.0,
            side=10.0, seeds=list(JV_SCENARIO_SEEDS), layouts=["uniform"],
            mechanisms=["jv"], profile_count=JV_PROFILES)[-JV_POOL:]
    if workload == "trace-fleet":
        bodies = build_trace_requests(
            sharded_trace(), mechanisms=["tree-shapley", "jv"],
            profile_count=2, repeats=window + 1)
        return bodies[-len(bodies) // (window + 1):]
    raise KeyError(workload)


def sharded_trace():
    """The trace-fleet trace: the first generator seed whose four groups
    route 2/2 over the fleet's two shards, so both workers carry load."""
    ring = HashRing(FLEET_SHARDS, replicas=DEFAULT_REPLICAS)
    for trace_seed in range(64):
        trace = generate_trace(seed=trace_seed, **TRACE_SHAPE)
        spec = trace.to_spec()
        routes = [ring.route(scenario_route_key(canonical(
            {"scenario": spec.to_dict(), "group": group})))
            for group in spec.group_ids]
        if routes.count(FLEET_SHARDS[0]) == len(routes) // 2:
            return trace
    raise RuntimeError("no evenly sharded trace")


def canonical(payload: dict) -> bytes:
    """Canonical JSON: how request bodies go on the wire (as ``loadgen``
    sends them) and the form responses are compared in."""
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def oracle(bodies: list[dict]) -> list[bytes]:
    """Canonical payloads of every body, priced cold in-process."""
    out: list[bytes | None] = [None] * len(bodies)
    requests = [parse_run_request(body) for body in bodies]
    by_group: dict[str, list[int]] = {}
    for index, request in enumerate(requests):
        if request.group is None:
            results = MulticastSession(request.scenario).run_batch(
                request.mechanism, list(request.profiles))
            out[index] = canonical(run_payload(request, results))
        else:
            by_group.setdefault(request.group, []).append(index)
    for group, indexes in by_group.items():
        spec = requests[indexes[0]].scenario
        cold = DynamicSession(spec.group_spec(group), incremental=False)
        for index in sorted(indexes, key=lambda i: requests[i].epoch):
            request = requests[index]
            results = cold.run_epoch(request.epoch, request.mechanism,
                                     list(request.profiles))
            out[index] = canonical(run_payload(request, results))
    return out


def first_mismatch(attempts, expected: list[bytes]) -> str | None:
    """Describe the first 200 answer that differs from the oracle."""
    seen: dict[tuple[int, bytes], bool] = {}
    for attempt in attempts:
        if attempt.status != 200:
            continue
        verdict = seen.get((attempt.body, attempt.raw))
        if verdict is None:
            try:
                verdict = canonical(json.loads(attempt.raw)) == expected[attempt.body]
            except ValueError:
                verdict = False
            seen[(attempt.body, attempt.raw)] = verdict
        if not verdict:
            return (f"request {attempt.index} (body {attempt.body}): got "
                    f"{attempt.raw[:160]!r}... expected "
                    f"{expected[attempt.body][:160]!r}...")
    return None


def schedule_seed(seed: int, phase: str) -> int:
    return _derived(seed, f"schedule|{phase}", bits=63)


def cores() -> int:
    return len(os.sched_getaffinity(0))
