"""Deterministic closed-loop load generator for the serving endpoint.

Builds a fixed request schedule — round-robin over the cross product of
layout families x seeds x mechanisms, with per-request utility profiles
drawn from seeds *derived* from each request's identity via
:func:`~repro.api.spec.seed_from_text` — so two loadgen runs against any
server issue byte-identical request bodies in the same per-worker order.

Closed loop means each worker sends its next request the moment the
previous answer lands (the service's own latency paces the offered
load), which is the shape that exercises the LRU store and the
micro-batcher together: concurrent workers keep several requests in
flight, so warm requests that arrive while their scenario's flush runs
share its next one.

The report carries per-request latencies (p50/p95/max), throughput, the
status-code histogram, the server's ``/v1/stats`` snapshot *and* its
``/metrics`` Prometheus exposition — the scrape yields the per-stage
latency summary (parse/queue/build/execute/serialize means) and the
store hit rate printed next to the client-side percentiles, and it is
what ``check(expect_engaged=True)`` verifies batch occupancy from: the
server-side flush-occupancy histogram, not just the stats counters.
``check()`` turns the whole report into pass/fail for CI smoke jobs.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.api.spec import ScenarioSpec, seed_from_text
from repro.observability import parse_exposition, sample_total

STAGES = ("parse", "queue", "build", "execute", "serialize")

UTILITY_SCALE = 10.0

# Bounded deterministic 429 handling: honor the server's Retry-After for
# at most RETRY_LIMIT attempts per request, never sleeping longer than
# RETRY_AFTER_CAP per attempt (a misconfigured header must not wedge a
# closed-loop worker).
RETRY_LIMIT = 3
RETRY_AFTER_CAP = 2.0


@dataclass(frozen=True)
class ReportStats:
    """Summary statistics over one latency sample set, safe on empty
    samples: percentiles are ``nan``, throughput is ``0.0`` — an all-429
    or all-transport-error run still renders a well-formed report."""

    count: int
    elapsed: float
    samples: tuple

    @classmethod
    def over(cls, samples, elapsed: float) -> "ReportStats":
        return cls(count=len(samples), elapsed=float(elapsed),
                   samples=tuple(sorted(samples)))

    def percentile(self, q: float) -> float:
        if not self.samples:
            return float("nan")
        position = min(self.count - 1, max(0, round(q * (self.count - 1))))
        return self.samples[position]

    @property
    def max(self) -> float:
        return self.samples[-1] if self.samples else float("nan")

    @property
    def throughput(self) -> float:
        """Completed requests per second (0.0 when nothing completed or
        no time elapsed — never a ZeroDivisionError, never inf)."""
        if self.count == 0 or self.elapsed <= 0:
            return 0.0
        return self.count / self.elapsed


def zipf_weights(keys: int, exponent: float) -> np.ndarray:
    """The normalized Zipf popularity vector over ``keys`` ranks:
    ``weight(k) ~ 1 / (k + 1) ** exponent``.  ``exponent=0`` is uniform;
    ~1 is the classic web-cache skew where the head keys dominate."""
    if keys < 1:
        raise ValueError(f"need keys >= 1, got {keys}")
    if exponent < 0:
        raise ValueError(f"need zipf exponent >= 0, got {exponent}")
    weights = np.array([1.0 / (rank + 1) ** exponent for rank in range(keys)])
    return weights / weights.sum()


def build_keyed_requests(*, requests: int, keys: int, zipf: float, n: int,
                         alpha: float, side: float, layouts: list[str],
                         mechanisms: list[str], profile_count: int
                         ) -> list[dict]:
    """A Zipf-skewed schedule over ``keys`` distinct scenarios.

    Each key's scenario seed is SHA-256-derived from the workload
    identity (:func:`~repro.api.spec.seed_from_text` over an explicit
    text form), and the rank sequence is drawn from a seeded generator
    via the cumulative-weights inverse — not ``rng.choice`` — so the
    schedule is byte-identical across runs, platforms and numpy
    versions.  This is the fleet-shaped workload: distinct keys spread
    over shards by the ring, while the Zipf head keeps every shard's
    LRU warm."""
    if requests < 1:
        raise ValueError(f"need requests >= 1, got {requests}")
    if not layouts or not mechanisms:
        raise ValueError("need at least one layout and one mechanism")
    identity = f"loadgen|keyed|n:{n}|alpha:{alpha}|side:{side}|keys:{keys}"
    scenarios = [
        ScenarioSpec.from_random(
            n=n, alpha=alpha, side=side,
            layout=layouts[rank % len(layouts)],
            seed=seed_from_text(f"{identity}|key:{rank}"))
        for rank in range(keys)]
    cumulative = np.cumsum(zipf_weights(keys, zipf))
    rng = np.random.default_rng(seed_from_text(f"{identity}|zipf:{zipf}|order"))
    out = []
    for index in range(requests):
        rank = min(int(np.searchsorted(cumulative, rng.random(),
                                       side="right")), keys - 1)
        scenario = scenarios[rank]
        mechanism = mechanisms[index % len(mechanisms)]
        profile_rng = np.random.default_rng(seed_from_text(
            f"loadgen|{scenario.to_json()}|{mechanism}|request:{index}"))
        profiles = [{str(a): float(profile_rng.uniform(0.0, UTILITY_SCALE))
                     for a in scenario.agents()}
                    for _ in range(profile_count)]
        out.append({"scenario": scenario.to_dict(), "mechanism": mechanism,
                    "profiles": profiles})
    return out


def build_requests(*, requests: int, n: int, alpha: float, side: float,
                   seeds: list[int], layouts: list[str], mechanisms: list[str],
                   profile_count: int, keys: int | None = None,
                   zipf: float = 1.1) -> list[dict]:
    """The deterministic request schedule (plain wire dicts).

    With ``keys`` set the schedule is the Zipf-skewed keyed workload of
    :func:`build_keyed_requests` (``seeds`` is ignored: per-key seeds
    are derived); otherwise the original round-robin over layouts x
    seeds x mechanisms, byte-identical to what it always produced."""
    if keys is not None:
        return build_keyed_requests(
            requests=requests, keys=keys, zipf=zipf, n=n, alpha=alpha,
            side=side, layouts=layouts, mechanisms=mechanisms,
            profile_count=profile_count)
    if requests < 1:
        raise ValueError(f"need requests >= 1, got {requests}")
    scenarios = [ScenarioSpec.from_random(n=n, alpha=alpha, seed=seed,
                                          side=side, layout=layout)
                 for layout in layouts for seed in seeds]
    if not scenarios:
        raise ValueError("need at least one layout and one seed")
    if not mechanisms:
        raise ValueError("need at least one mechanism")
    out = []
    for index in range(requests):
        scenario = scenarios[index % len(scenarios)]
        mechanism = mechanisms[(index // len(scenarios)) % len(mechanisms)]
        rng = np.random.default_rng(seed_from_text(
            f"loadgen|{scenario.to_json()}|{mechanism}|request:{index}"))
        profiles = [{str(a): float(rng.uniform(0.0, UTILITY_SCALE))
                     for a in scenario.agents()}
                    for _ in range(profile_count)]
        out.append({"scenario": scenario.to_dict(), "mechanism": mechanism,
                    "profiles": profiles})
    return out


def build_trace_requests(trace, *, mechanisms: list[str], profile_count: int,
                         repeats: int = 1) -> list[dict]:
    """The closed-loop replay schedule of a multi-group trace: every
    ``(group, epoch)`` cell visited ``repeats`` times in lockstep order —
    epoch-major, group-minor — so concurrent groups share each substrate
    while it is hot on the worker, exactly like
    :meth:`~repro.traces.session.MultiGroupSession.replay`.

    ``trace`` is a :class:`~repro.traces.format.Trace`, a
    :class:`~repro.traces.spec.MultiGroupScenarioSpec`, or its wire
    mapping.  Profile draws are seeded per ``(group, epoch, index)`` from
    the scenario's wire form, so two replays of one trace file issue
    byte-identical bodies."""
    from repro.traces.spec import MultiGroupScenarioSpec

    if hasattr(trace, "to_spec"):
        spec = trace.to_spec()
    elif isinstance(trace, MultiGroupScenarioSpec):
        spec = trace
    else:
        spec = MultiGroupScenarioSpec.from_dict(trace)
    if repeats < 1:
        raise ValueError(f"need repeats >= 1, got {repeats}")
    if not mechanisms:
        raise ValueError("need at least one mechanism")
    wire = spec.to_dict()
    identity = spec.to_json()
    agents = spec.agents()
    out = []
    index = 0
    for _repeat in range(repeats):
        for epoch in range(spec.n_epochs):
            for group in spec.group_ids:
                mechanism = mechanisms[index % len(mechanisms)]
                rng = np.random.default_rng(seed_from_text(
                    f"loadgen|trace|{identity}|{group}|epoch:{epoch}"
                    f"|{mechanism}|request:{index}"))
                profiles = [
                    {str(a): float(rng.uniform(0.0, UTILITY_SCALE))
                     for a in agents}
                    for _ in range(profile_count)]
                out.append({"scenario": wire, "mechanism": mechanism,
                            "profiles": profiles, "epoch": epoch,
                            "group": group})
                index += 1
    return out


@dataclass
class LoadReport:
    """Everything one loadgen run observed."""

    requests: int
    concurrency: int
    elapsed: float
    latencies: list[float]            # seconds, completion order
    statuses: dict[int, int]
    errors: list[str]
    stats: dict | None                # the server's /v1/stats snapshot
    config: dict = field(default_factory=dict)
    metrics: str | None = None        # the server's /metrics exposition
    # Latencies grouped by the X-Repro-Shard response header — which
    # shard answered each request when the target is a fleet router.
    shard_latencies: dict[str, list[float]] = field(default_factory=dict)
    # 429 responses retried after honoring Retry-After (each retry is an
    # extra attempt, not an extra scheduled request).
    retries: int = 0
    # Client-side latency keyed by the X-Repro-Trace-Id a traced server
    # echoed — the join key into the server's span logs (``python -m
    # repro spans report`` names the same trace ids).  Empty against an
    # untraced server.
    trace_latencies: dict[str, float] = field(default_factory=dict)
    # Trace replay: per-group, per-epoch cost-share aggregates keyed
    # {group: {epoch: {"count", "cost", "charged", "receivers"}}} (sums;
    # group_lines() renders means).
    group_rows: dict = field(default_factory=dict)

    @property
    def completed(self) -> int:
        """Requests that got an HTTP response (any status)."""
        return len(self.latencies)

    def stats_over(self, samples=None) -> ReportStats:
        return ReportStats.over(self.latencies if samples is None else samples,
                                self.elapsed)

    @property
    def throughput(self) -> float:
        """Completed requests per second (0.0 when nothing completed)."""
        return self.stats_over().throughput

    @staticmethod
    def _percentile(samples: list[float], q: float) -> float:
        return ReportStats.over(samples, 0.0).percentile(q)

    def percentile(self, q: float) -> float:
        return self.stats_over().percentile(q)

    def observed_shards(self) -> tuple[str, ...]:
        """Shards that answered at least one request, sorted."""
        return tuple(sorted(self.shard_latencies))

    def lines(self) -> list[str]:
        status = " ".join(f"{code}:{count}"
                          for code, count in sorted(self.statuses.items()))
        stats = self.stats_over()
        out = [
            f"loadgen: {self.requests} requests, concurrency "
            f"{self.concurrency}, {self.elapsed:.2f}s, "
            f"{stats.throughput:.1f} req/s"
            + (f", {self.retries} retries" if self.retries else ""),
            f"latency: p50 {stats.percentile(0.50) * 1e3:.1f}ms  "
            f"p95 {stats.percentile(0.95) * 1e3:.1f}ms  "
            f"max {stats.max * 1e3:.1f}ms" if self.latencies
            else "latency: no samples",
            f"status: {status or 'none'}",
        ]
        for error in self.errors[:5]:
            out.append(f"error: {error}")
        if self.stats is not None:
            store, batcher = self.stats.get("store", {}), self.stats.get("batcher", {})
            out.append(
                "stats: store hits={hits} misses={misses} evictions={evictions}; "
                "batcher batches={batches} "
                "requests={requests} max_batch={max_batch_size}".format(
                    **{**{k: "?" for k in ("hits", "misses", "evictions")},
                       **store},
                    **{**{k: "?" for k in ("batches", "requests",
                                           "max_batch_size")}, **batcher}))
        out.extend(self.shard_lines())
        out.extend(self.group_lines())
        out.extend(self.metric_lines())
        out.extend(self.trace_lines())
        return out

    def trace_lines(self) -> list[str]:
        """The span-log join: how many responses carried a trace id, and
        the slowest client-observed trace — the exemplar to look up with
        ``spans report``.  Empty against an untraced server."""
        if not self.trace_latencies:
            return []
        slowest = max(self.trace_latencies, key=self.trace_latencies.get)
        return [
            f"spans: {len(self.trace_latencies)}/{self.completed} responses "
            f"carried X-Repro-Trace-Id; slowest trace {slowest} "
            f"({self.trace_latencies[slowest] * 1e3:.1f}ms client-side)",
        ]

    def group_lines(self) -> list[str]:
        """Per-group cost-share trajectories — the trace-replay view.
        Empty unless the run replayed a trace."""
        out = []
        for group in sorted(self.group_rows):
            by_epoch = self.group_rows[group]
            cells = []
            for epoch in sorted(by_epoch):
                cell = by_epoch[epoch]
                count = cell.get("count", 0)
                if not count:
                    continue
                cells.append(
                    f"e{epoch} cost {cell['cost'] / count:.2f} "
                    f"charged {cell['charged'] / count:.1f}")
            priced = sum(1 for cell in by_epoch.values()
                         if cell.get("count", 0))
            out.append(f"group {group}: {priced}/{len(by_epoch)} epochs "
                       "priced; " + (" | ".join(cells) or "no rows"))
        return out

    def shard_lines(self) -> list[str]:
        """Per-shard client-side p95 and server-side hit rate — the
        fleet view.  Empty against a single-process server (no
        ``X-Repro-Shard`` header, no ``"shards"`` stats block)."""
        if not self.shard_latencies:
            return []
        shard_stats = (self.stats or {}).get("shards", {})
        out = []
        for shard in self.observed_shards():
            samples = self.shard_latencies[shard]
            line = (f"shard {shard}: {len(samples)} requests, "
                    f"p95 {self._percentile(samples, 0.95) * 1e3:.1f}ms")
            store = shard_stats.get(shard, {}).get("store")
            if store:
                lookups, hits = store.get("lookups", 0), store.get("hits", 0)
                rate = hits / lookups * 100 if lookups else 0.0
                line += (f", hit-rate {rate:.0f}% "
                         f"({hits}/{lookups} lookups)")
            out.append(line)
        return out

    def metric_lines(self) -> list[str]:
        """The scraped-metrics summary: mean per-stage latency and the
        server-side hit/occupancy picture."""
        if self.metrics is None:
            return []
        parsed = parse_exposition(self.metrics)
        stages = []
        for stage in STAGES:
            count = sample_total(parsed, "repro_stage_seconds_count",
                                 {"stage": stage})
            total = sample_total(parsed, "repro_stage_seconds_sum",
                                 {"stage": stage})
            stages.append(f"{stage} {total / count * 1e3:.2f}ms"
                          if count else f"{stage} -")
        lookups = sample_total(parsed, "repro_store_lookups_total")
        hits = sample_total(parsed, "repro_store_hits_total")
        flushes = sample_total(parsed, "repro_batch_occupancy_count")
        solo = sample_total(parsed, "repro_batch_occupancy_bucket", {"le": "1"})
        hit_rate = (hits / lookups * 100) if lookups else 0.0
        return [
            "metrics: stage means " + " | ".join(stages),
            f"metrics: store hit-rate {hit_rate:.0f}% "
            f"({int(hits)} hits / {int(lookups)} lookups); "
            f"multi-request flushes {int(flushes - solo)}/{int(flushes)}",
        ]

    def batch_engaged(self) -> bool | None:
        """Whether the scraped flush-occupancy histogram shows a flush
        holding more than one request (``None``: no scrape to judge by)."""
        if self.metrics is None:
            return None
        parsed = parse_exposition(self.metrics)
        flushes = sample_total(parsed, "repro_batch_occupancy_count")
        solo = sample_total(parsed, "repro_batch_occupancy_bucket", {"le": "1"})
        return flushes - solo >= 1

    def check(self, *, expect_engaged: bool = False,
              expect_shards: int | None = None,
              expect_groups: int | None = None) -> list[str]:
        """CI verdicts: every request answered 200; optionally the warm
        machinery must have engaged; against a fleet, optionally at
        least ``expect_shards`` shards answered and every one of them
        served warm lookups (store hits); on a trace replay,
        optionally at least ``expect_groups`` groups priced with every
        observed group priced at every epoch."""
        failures = []
        if self.completed == 0:
            failures.append(
                f"no requests completed ({self.requests} attempted; "
                f"statuses {dict(sorted(self.statuses.items()))})")
        if expect_groups is not None:
            priced = {group for group, by_epoch in self.group_rows.items()
                      if any(cell.get("count", 0)
                             for cell in by_epoch.values())}
            if len(priced) < expect_groups:
                failures.append(
                    f"expected >= {expect_groups} groups priced, "
                    f"saw {sorted(priced) or 'none'}")
            for group in sorted(self.group_rows):
                unpriced = [epoch for epoch, cell
                            in sorted(self.group_rows[group].items())
                            if not cell.get("count", 0)]
                if unpriced:
                    failures.append(
                        f"group {group} has unpriced epochs {unpriced}")
        if expect_shards is not None:
            answered = self.observed_shards()
            if len(answered) < expect_shards:
                failures.append(
                    f"expected >= {expect_shards} shards answering, "
                    f"saw {list(answered) or 'none'}")
            shard_stats = (self.stats or {}).get("shards", {})
            for shard in answered:
                store = shard_stats.get(shard, {}).get("store")
                if store is None:
                    continue  # drained mid-run: no final snapshot to judge
                if store.get("hits", 0) < 1:
                    failures.append(
                        f"shard {shard} never served a warm lookup "
                        f"(hits == 0)")
        non_200 = {code: count for code, count in self.statuses.items()
                   if code != 200}
        if non_200 or self.errors:
            failures.append(
                f"expected all-200 responses, got {dict(sorted(self.statuses.items()))}"
                + (f" with transport errors: {self.errors[:3]}" if self.errors else ""))
        if expect_engaged:
            if self.stats is None:
                failures.append("no /v1/stats snapshot to verify engagement")
            else:
                store = self.stats.get("store", {})
                if store.get("hits", 0) < 1:
                    failures.append(
                        "session reuse never engaged (store hits == 0)")
            # Batch engagement is judged from the scraped flush-occupancy
            # histogram — the server-side ground truth — with the stats
            # counter as fallback for servers without /metrics.
            engaged = self.batch_engaged()
            if engaged is None:
                batcher = (self.stats or {}).get("batcher", {})
                engaged = batcher.get("max_batch_size", 0) >= 2
            if not engaged:
                failures.append(
                    "micro-batching never engaged (no flush held >= 2 requests)")
        return failures


def _post_json(connection: http.client.HTTPConnection, path: str,
               body: bytes
               ) -> tuple[int, dict, str | None, str | None, str | None]:
    connection.request("POST", path, body=body,
                       headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    payload = json.loads(response.read().decode("utf-8"))
    return (response.status, payload, response.getheader("X-Repro-Shard"),
            response.getheader("Retry-After"),
            response.getheader("X-Repro-Trace-Id"))


def _retry_delay(retry_after: str | None) -> float:
    """The bounded sleep a 429's Retry-After asks for (deterministic:
    the server's own value, clamped to [0, RETRY_AFTER_CAP])."""
    try:
        delay = float(retry_after) if retry_after is not None else 0.05
    except ValueError:
        delay = 0.05
    return min(max(delay, 0.0), RETRY_AFTER_CAP)


def _get_json(connection: http.client.HTTPConnection, path: str) -> tuple[int, dict]:
    connection.request("GET", path)
    response = connection.getresponse()
    return response.status, json.loads(response.read().decode("utf-8"))


def _get_text(connection: http.client.HTTPConnection, path: str) -> tuple[int, str]:
    connection.request("GET", path)
    response = connection.getresponse()
    return response.status, response.read().decode("utf-8")


def run_loadgen(*, host: str, port: int, requests: int, concurrency: int,
                n: int, alpha: float, side: float, seeds: list[int],
                layouts: list[str], mechanisms: list[str], profile_count: int,
                timeout: float = 60.0, keys: int | None = None,
                zipf: float = 1.1, trace=None, trace_repeats: int = 1,
                retry_limit: int = RETRY_LIMIT) -> LoadReport:
    """Drive the service closed-loop and return the observed report.

    With ``trace`` set (a :class:`~repro.traces.format.Trace`, multi-group
    spec, or its wire mapping) the schedule is the trace's lockstep
    ``(group, epoch)`` replay — ``requests``/``n``/``seeds``/``layouts``/
    ``keys`` are ignored — and the report accumulates per-group
    cost-share trajectories from the response summaries.

    429 responses are retried up to ``retry_limit`` times per request,
    honoring the server's ``Retry-After`` (bounded); while a request
    waits to retry, no worker sends a new one, so fresh requests cannot
    starve it of the slot it was refused.  The recorded latency is the
    final attempt's, and every retry is counted in the report."""
    trace_cells: dict[str, dict[int, dict]] = {}
    if trace is not None:
        schedule = build_trace_requests(trace, mechanisms=mechanisms,
                                        profile_count=profile_count,
                                        repeats=trace_repeats)
        for request in schedule:
            trace_cells.setdefault(request["group"], {}).setdefault(
                request["epoch"],
                {"count": 0, "cost": 0.0, "charged": 0.0, "receivers": 0.0})
    else:
        schedule = build_requests(requests=requests, n=n, alpha=alpha,
                                  side=side, seeds=seeds, layouts=layouts,
                                  mechanisms=mechanisms,
                                  profile_count=profile_count,
                                  keys=keys, zipf=zipf)
    bodies = [json.dumps(request, sort_keys=True).encode("utf-8")
              for request in schedule]
    concurrency = max(1, min(int(concurrency), len(bodies)))
    retry_limit = max(0, int(retry_limit))

    next_index = 0
    # Workers between a 429 and their retry's answer; while any waits,
    # no worker takes a new index (see the docstring).
    retrying = 0
    intake = threading.Condition()
    latencies: list[float] = []
    statuses: dict[int, int] = {}
    errors: list[str] = []
    shard_latencies: dict[str, list[float]] = {}
    trace_latencies: dict[str, float] = {}
    counts = {"retries": 0}
    record_lock = threading.Lock()

    def record_trace_row(payload: dict) -> None:
        """Attribute one 200 payload to its (group, epoch) cell via the
        server's echoed resolution (the protocol stamps both)."""
        group, epoch = payload.get("group"), payload.get("epoch")
        summary = payload.get("summary") or {}
        cell = trace_cells.get(group, {}).get(epoch)
        if cell is None:
            return
        cell["count"] += 1
        cell["cost"] += float(summary.get("mean_cost", 0.0))
        cell["charged"] += float(summary.get("mean_charged", 0.0))
        cell["receivers"] += float(summary.get("mean_receivers", 0.0))

    def worker() -> None:
        nonlocal next_index, retrying
        connection = http.client.HTTPConnection(host, port, timeout=timeout)

        def post_once(body: bytes):
            nonlocal connection
            try:
                return _post_json(connection, "/v1/run", body)
            except (OSError, http.client.HTTPException):
                # One reconnect per failure: keep-alive sockets the
                # server closed between requests look like this.
                connection.close()
                connection = http.client.HTTPConnection(host, port,
                                                        timeout=timeout)
                return _post_json(connection, "/v1/run", body)

        try:
            while True:
                with intake:
                    intake.wait_for(lambda: retrying == 0)
                    if next_index >= len(bodies):
                        return
                    index = next_index
                    next_index += 1
                attempts = 0
                try:
                    while True:
                        started = time.perf_counter()
                        try:
                            (status, payload, shard, retry_after,
                             trace_id) = post_once(bodies[index])
                        except (OSError, http.client.HTTPException) as exc:
                            with record_lock:
                                errors.append(f"request {index}: {exc}")
                                statuses[0] = statuses.get(0, 0) + 1
                            break
                        if status == 429 and attempts < retry_limit:
                            # Backpressure, not failure: honor Retry-After
                            # (bounded) and try again.
                            if not attempts:
                                with intake:
                                    retrying += 1
                            attempts += 1
                            with record_lock:
                                counts["retries"] += 1
                            time.sleep(_retry_delay(retry_after))
                            continue
                        elapsed = time.perf_counter() - started
                        with record_lock:
                            latencies.append(elapsed)
                            statuses[status] = statuses.get(status, 0) + 1
                            if shard is not None:
                                shard_latencies.setdefault(
                                    shard, []).append(elapsed)
                            if trace_id is not None:
                                trace_latencies[trace_id] = elapsed
                            if trace_cells and status == 200:
                                record_trace_row(payload)
                        break
                finally:
                    if attempts:
                        with intake:
                            retrying -= 1
                            intake.notify_all()
        finally:
            connection.close()

    threads = [threading.Thread(target=worker, daemon=True)
               for _ in range(concurrency)]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    stats = None
    metrics = None
    try:
        connection = http.client.HTTPConnection(host, port, timeout=timeout)
        status, payload = _get_json(connection, "/v1/stats")
        if status == 200:
            stats = payload
        status, text = _get_text(connection, "/metrics")
        if status == 200:
            metrics = text
        connection.close()
    except (OSError, http.client.HTTPException) as exc:
        errors.append(f"stats: {exc}")

    return LoadReport(
        requests=len(bodies), concurrency=concurrency, elapsed=elapsed,
        latencies=latencies, statuses=statuses, errors=errors, stats=stats,
        metrics=metrics, shard_latencies=shard_latencies,
        retries=counts["retries"], trace_latencies=trace_latencies,
        group_rows=trace_cells,
        config={"host": host, "port": port, "n": n, "alpha": alpha,
                "side": side, "seeds": seeds, "layouts": layouts,
                "mechanisms": mechanisms, "profile_count": profile_count,
                "keys": keys, "zipf": zipf,
                "trace_repeats": trace_repeats if trace is not None else None,
                "retry_limit": retry_limit})
