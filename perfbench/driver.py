"""Load drivers: a seeded open-loop schedule and a closed-loop phase.

Both drive the server over at most two keep-alive HTTP/1.1 connections
from this one process (on a 2-core host a third connection would
measure the client, not the server).

* **Open loop** (:func:`run_open_loop`): requests are due on a seeded
  Poisson schedule at a fixed offered rate, whatever the server does.
  Each request's latency is timed from when it was *due*, so a stall
  also charges the requests queued behind it.  How late the generator
  itself ran — send time past ``max(due, connection free)`` — is
  recorded per request, so an overloaded client shows up as invalid
  rather than as a fast server.
* **Closed loop** (:func:`run_closed_loop`): each connection sends its
  next request as soon as the previous answer lands, for a fixed time.

A run interleaves the two in rounds (open segment, closed segment, ...)
so each figure samples the whole run, not one stretch of it: on a shared
host, CPU speed drifts over tens of seconds.

Every attempt is recorded: a transport error is status 0, and anything
but a 200 counts as failed against the attempted total.  Percentiles go
through :class:`repro.service.loadgen.ReportStats`; :func:`percentile_ms`
refuses a p95 over fewer than :data:`MIN_P95_SAMPLES` samples, so at
least ten samples lie beyond it.
"""

from __future__ import annotations

import http.client
import math
import statistics
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from repro.service.loadgen import ReportStats
from repro.service.protocol import TRACE_ID_HEADER

MIN_P95_SAMPLES = 200
CONNECTIONS = 2


@dataclass(frozen=True)
class Attempt:
    """One request as the client saw it."""

    index: int            # position in the schedule
    body: int             # index into the workload's body pool
    status: int           # HTTP status; 0 = transport error
    latency: float        # seconds from due (open loop) or send (closed loop)
    late: float           # seconds the generator sent past its own deadline
    raw: bytes            # response body
    trace_id: str | None  # echoed X-Repro-Trace-Id (traced servers only)
    done: float = 0.0     # clock reading when the answer landed


@dataclass
class PhaseResult:
    attempts: list[Attempt] = field(default_factory=list)
    started: float = 0.0  # clock reading when the phase began

    @property
    def attempted(self) -> int:
        return len(self.attempts)

    @property
    def ok(self) -> list[Attempt]:
        return [a for a in self.attempts if a.status == 200]

    @property
    def failed(self) -> int:
        return self.attempted - len(self.ok)

    def latencies(self) -> list[float]:
        """Every attempt's latency; a failed attempt counts as infinitely
        slow, so it misses any latency limit."""
        return [a.latency if a.status == 200 else math.inf
                for a in self.attempts]


def percentile_ms(samples: list[float], q: float) -> float:
    """The ``q`` quantile of ``samples`` (seconds) in milliseconds.

    A p95 (or any ``q > 0.5``) needs at least :data:`MIN_P95_SAMPLES`
    samples: with fewer, fewer than ten lie beyond it and the tail it
    claims to describe is a handful of requests."""
    if q > 0.5 and len(samples) < MIN_P95_SAMPLES:
        raise ValueError(
            f"p{q * 100:g} needs >= {MIN_P95_SAMPLES} samples, "
            f"got {len(samples)}")
    if not samples:
        raise ValueError("no samples")
    return ReportStats.over(samples, 0.0).percentile(q) * 1e3


def poisson_schedule(*, seed: int, rate: float, count: int,
                     pool: int) -> list[tuple[float, int]]:
    """``count`` ``(due offset seconds, body index)`` pairs, bodies
    cycling through the pool in order.

    The arrivals are a Poisson process at ``rate`` conditioned on its
    ``count``-th arrival landing at ``(count - 1) / rate``: exponential
    gaps drawn from ``seed``, rescaled to that span (equivalently,
    uniform order statistics).  Bursts and lulls vary with the seed; the
    offered rate does not, so two seeds load the server equally."""
    if rate <= 0 or count < 1 or pool < 1:
        raise ValueError("need rate > 0, count >= 1 and pool >= 1")
    gaps = np.random.default_rng(seed).exponential(1.0 / rate, size=count)
    gaps[0] = 0.0
    if count > 1:
        gaps *= ((count - 1) / rate) / gaps.sum()
    offsets = np.cumsum(gaps)
    return [(float(offsets[i]), i % pool) for i in range(count)]


class HttpTransport:
    """One keep-alive connection posting JSON bodies to ``/v1/run``."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.host, self.port, self.timeout = host, port, timeout
        self._connection: http.client.HTTPConnection | None = None

    def _post(self, body: bytes) -> tuple[int, bytes, str | None]:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout)
        self._connection.request("POST", "/v1/run", body=body,
                                 headers={"Content-Type": "application/json"})
        response = self._connection.getresponse()
        raw = response.read()
        return response.status, raw, response.getheader(TRACE_ID_HEADER)

    def __call__(self, body: bytes) -> tuple[int, bytes, str | None]:
        try:
            return self._post(body)
        except (OSError, http.client.HTTPException) as exc:
            self.close()
            return 0, repr(exc).encode("utf-8"), None

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


def run_open_loop(schedule: list[tuple[float, int]], bodies: list[bytes],
                  transports: list, *, lead: float = 0.05) -> PhaseResult:
    """Send ``schedule`` over ``transports`` (one thread each).

    A free connection takes the next scheduled request, sleeps until it
    is due, and sends it; latency runs from the due time to the answer.
    Due times are offsets from ``lead`` seconds after the call.
    """
    start = time.perf_counter() + lead - schedule[0][0]
    lock = threading.Lock()
    cursor = [0]
    attempts: list[Attempt] = []

    def connection(send) -> None:
        free_at = start
        while True:
            with lock:
                index = cursor[0]
                if index >= len(schedule):
                    return
                cursor[0] += 1
            offset, body = schedule[index]
            due = start + offset
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            sent = time.perf_counter()
            status, raw, trace_id = send(bodies[body])
            done = time.perf_counter()
            with lock:
                attempts.append(Attempt(
                    index=index, body=body, status=status, latency=done - due,
                    late=max(0.0, sent - max(due, free_at)), raw=raw,
                    trace_id=trace_id, done=done))
            free_at = done

    _run_threads(connection, transports)
    attempts.sort(key=lambda a: a.index)
    return PhaseResult(attempts=attempts, started=start)


def run_closed_loop(order: list[int], bodies: list[bytes], transports: list,
                    *, seconds: float) -> PhaseResult:
    """Each connection sends back to back, taking the next body of
    ``order`` (cycled), until ``seconds`` have passed."""
    lock = threading.Lock()
    cursor = [0]
    attempts: list[Attempt] = []
    started = time.perf_counter()
    deadline = started + seconds

    def connection(send) -> None:
        while time.perf_counter() < deadline:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            body = order[index % len(order)]
            sent = time.perf_counter()
            status, raw, trace_id = send(bodies[body])
            done = time.perf_counter()
            with lock:
                attempts.append(Attempt(
                    index=index, body=body, status=status, latency=done - sent,
                    late=0.0, raw=raw, trace_id=trace_id, done=done))

    _run_threads(connection, transports)
    attempts.sort(key=lambda a: a.index)
    return PhaseResult(attempts=attempts, started=started)


def closed_rate(phases: list[PhaseResult]) -> float:
    """Completed 200s per second over closed-loop segments: each
    segment's count over the time to its last answer, and the median
    over segments — spread over the run, so a burst from a neighbour on
    a shared host spoils one segment, not the figure."""
    rates = []
    for phase in phases:
        done = [a.done for a in phase.ok]
        if not done:
            raise ValueError("a closed-loop segment completed nothing")
        rates.append(len(done) / (max(done) - phase.started))
    return statistics.median(rates)


def run_sequential(bodies: list[bytes], send) -> PhaseResult:
    """Every body once, in order, on one connection (the warm-up pass)."""
    started = time.perf_counter()
    attempts = []
    for index, body in enumerate(bodies):
        sent = time.perf_counter()
        status, raw, trace_id = send(body)
        attempts.append(Attempt(index=index, body=index, status=status,
                                latency=time.perf_counter() - sent, late=0.0,
                                raw=raw, trace_id=trace_id))
    return PhaseResult(attempts=attempts, started=started)


def _run_threads(target, transports: list) -> None:
    threads = [threading.Thread(target=target, args=(send,), daemon=True,
                                name=f"perfbench-conn-{i}")
               for i, send in enumerate(transports)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
