"""Per-layer attribution, measured from outside the program.

Two sources, both through surfaces the program already exposes:

* **The traced server run** — spans from ``--span-log`` (read back with
  :func:`repro.observability.load_span_logs`) joined to the client's
  requests by the echoed ``X-Repro-Trace-Id``, plus ``GET /metrics`` /
  ``GET /v1/stats`` scrapes taken before and after the measured phase.
* **An in-process sequential replay** of the same request bodies on
  sessions built by :func:`repro.service.state.build_session`, with the
  layers' public functions wrapped where their callers look them up:
  ``kmb_steiner_tree`` and ``steiner_heuristic_power`` as seen from
  :mod:`repro.core.euclidean_bb`, and ``moulin_shenker`` in every module
  that imported it.  The replay runs a cold pass (first visit of every
  body: counts) and a warm pass (the state the server measures in:
  times).  Its answers are checked against the oracle too.

A layer a workload does not reach reports 0 (e.g. ``fleet.forward_ms``
on a single-process server, ``core.served_tree_ms`` on tree-shapley).
"""

from __future__ import annotations

import statistics
import sys
import time
from contextlib import contextmanager

from repro.observability import parse_exposition, sample_total
from repro.service.fleet import scenario_route_key
from repro.service.protocol import parse_run_request, run_payload
from repro.service.state import build_session

from workloads import canonical


def _median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def _series(parsed: dict, name: str) -> list[float]:
    return [value for _labels, value in parsed["samples"].get(name, [])]


def scrape_metrics(before: str, after: str, stats: dict) -> dict:
    """Metrics from two ``/metrics`` scrapes around the measured phase
    and the final ``/v1/stats`` snapshot."""
    b, a = parse_exposition(before), parse_exposition(after)

    def delta(name: str, where: dict | None = None) -> float:
        return sample_total(a, name, where) - sample_total(b, name, where)

    flushes = delta("repro_batch_occupancy_count")
    lookups = delta("repro_store_lookups_total")
    windows = _series(a, "repro_batch_window_seconds")
    store = stats.get("store", {})
    return {
        "batching.occupancy": (delta("repro_batch_occupancy_sum") / flushes
                               if flushes else 0.0),
        "batching.window_ms": (statistics.fmean(windows) * 1e3
                               if windows else 0.0),
        "observability.adapt_decisions": delta("repro_adapt_decisions_total"),
        "state.hit_frac": ((delta("repro_store_hits_total")
                            + delta("repro_store_coalesced_total")) / lookups
                           if lookups else 0.0),
        "traces.substrate_built": float(store.get("substrate_sessions_built", 0)),
        "traces.substrate_shared": float(store.get("substrate_sessions_shared", 0)),
    }


def span_metrics(spans: list, measured: dict[str, float]) -> dict:
    """Stage medians over the measured phase's traces.

    ``measured`` maps each trace id the client saw in the measured phase
    to its client-side latency (seconds).  The worker's ``request`` span
    is the one not opened by a router (``shard != "router"``); its
    direct children are the stages, and what they leave uncovered is
    ``server.unaccounted_ms``."""
    by_trace: dict[str, list] = {}
    for span in spans:
        by_trace.setdefault(span.trace_id, []).append(span)
    stages: dict[str, list[float]] = {
        "parse": [], "serialize": [], "queue": [], "execute": []}
    requests, unaccounted, forward = [], [], []
    for trace_id in measured:
        members = by_trace.get(trace_id, [])
        worker = [s for s in members if s.name == "request"
                  and s.attributes.get("shard") != "router"]
        if len(worker) != 1:
            continue
        request = worker[0]
        requests.append(request.duration)
        children = [s for s in members if s.parent_id == request.span_id]
        unaccounted.append(request.duration
                           - sum(s.duration for s in children))
        for span in children:
            if span.name in stages:
                stages[span.name].append(span.duration)
        hop = [s for s in members if s.name == "forward"
               and s.span_id == request.parent_id]
        if hop:
            forward.append(hop[0].duration - request.duration)
    client_p50 = statistics.median(measured.values()) if measured else 0.0
    builds = [s.duration for s in spans if s.name == "build"]
    return {
        "server.parse_ms": _median_ms(stages["parse"]),
        "server.serialize_ms": _median_ms(stages["serialize"]),
        "batching.queue_ms": _median_ms(stages["queue"]),
        "server.execute_ms": _median_ms(stages["execute"]),
        "server.unaccounted_ms": _median_ms(unaccounted),
        "server.wire_ms": (client_p50 - statistics.median(requests)) * 1e3
        if requests else 0.0,
        "fleet.forward_ms": _median_ms(forward),
        "state.build_ms": statistics.fmean(builds) * 1e3 if builds else 0.0,
        "state.session_builds": float(sum(1 for s in spans
                                          if s.name == "session_build")),
        "_joined": len(requests),
    }


class _Probe:
    """Counters and timers the wrapped layer functions feed."""

    def __init__(self) -> None:
        self.served_tree = 0.0
        self.ms_calls = 0
        self.xi_calls = 0


@contextmanager
def _wrapped_layers(probe: _Probe):
    """Wrap the served-tree build and the Moulin-Shenker driver where
    their callers look them up; restore the originals on exit."""
    import repro.core  # noqa: F401 - loads every mechanism module for the scan
    import repro.core.euclidean_bb as euclidean_bb
    import repro.engine.batch  # noqa: F401 - the lockstep batch driver
    from repro.mechanism.moulin_shenker import moulin_shenker as original_ms

    def timed(fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                probe.served_tree += time.perf_counter() - t0
        return wrapper

    def counted_ms(agents, method, profile, **kwargs):
        probe.ms_calls += 1

        def xi(R):
            probe.xi_calls += 1
            return method(R)
        return original_ms(agents, xi, profile, **kwargs)

    patches = [(euclidean_bb, "kmb_steiner_tree",
                timed(euclidean_bb.kmb_steiner_tree)),
               (euclidean_bb, "steiner_heuristic_power",
                timed(euclidean_bb.steiner_heuristic_power))]
    for name, module in list(sys.modules.items()):
        if (name.startswith("repro") and module is not None
                and getattr(module, "moulin_shenker", None) is original_ms):
            patches.append((module, "moulin_shenker", counted_ms))
    saved = [(module, attr, getattr(module, attr))
             for module, attr, _ in patches]
    try:
        for module, attr, value in patches:
            setattr(module, attr, value)
        yield
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


def _run(sessions: dict, registry, request):
    session = sessions.get(request.key)
    if session is None:
        session = sessions[request.key] = build_session(request.scenario,
                                                        registry=registry)
    if request.group is not None:
        return session.run_epoch(request.group, request.epoch,
                                 request.mechanism, list(request.profiles))
    return session.run_batch(request.mechanism, list(request.profiles))


def replay_in_process(bodies: list[dict], encoded: list[bytes],
                      expected: list[bytes]) -> tuple[dict, str | None]:
    """Cold then warm sequential replay of the pool; returns the layer
    metrics and the first answer that differs from the oracle."""
    from repro.observability import MetricsRegistry

    requests = [parse_run_request(body) for body in bodies]
    registry = MetricsRegistry()
    sessions: dict = {}
    probe = _Probe()
    cold_times, warm_times, warm_trees = [], [], []
    mismatch = None
    with _wrapped_layers(probe):
        for index, request in enumerate(requests):
            t0 = time.perf_counter()
            results = _run(sessions, registry, request)
            cold_times.append(time.perf_counter() - t0)
            if mismatch is None and canonical(
                    run_payload(request, results)) != expected[index]:
                mismatch = f"in-process cold replay of body {index}"
        cold = parse_exposition(registry.render())
        ms_calls, xi_calls = probe.ms_calls, probe.xi_calls
        for index, request in enumerate(requests):
            tree0 = probe.served_tree
            t0 = time.perf_counter()
            results = _run(sessions, registry, request)
            warm_times.append(time.perf_counter() - t0)
            warm_trees.append(probe.served_tree - tree0)
            if mismatch is None and canonical(
                    run_payload(request, results)) != expected[index]:
                mismatch = f"in-process warm replay of body {index}"

    hits = sample_total(cold, "repro_xi_cache_total", {"result": "hit"})
    misses = sample_total(cold, "repro_xi_cache_total", {"result": "miss"})
    built = (sample_total(cold, "repro_trace_substrate_built_total")
             or len(sessions))
    grouped = [t for t, r in zip(cold_times, requests) if r.group is not None]

    route_rounds = 20
    t0 = time.perf_counter()
    for _ in range(route_rounds):
        for body in encoded:
            scenario_route_key(body)
    route_s = (time.perf_counter() - t0) / (route_rounds * len(encoded))

    return {
        "session.build_ms": sample_total(
            cold, "repro_session_build_seconds_sum") / built * 1e3,
        "session.run_ms": _median_ms(warm_times),
        "core.served_tree_ms": _median_ms(warm_trees),
        "core.served_tree_frac": sum(warm_trees) / sum(warm_times),
        "engine.xi_misses": misses,
        "engine.xi_hit_frac": hits / (hits + misses) if hits + misses else 0.0,
        "mechanism.drop_rounds": xi_calls / ms_calls if ms_calls else 0.0,
        "traces.run_epoch_ms": (statistics.fmean(grouped) * 1e3
                                if grouped else 0.0),
        "fleet.route_key_ms": route_s * 1e3,
    }, mismatch
