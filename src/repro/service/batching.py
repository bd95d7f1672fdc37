"""Micro-batched mechanism execution over the session store.

A serving process under concurrent load sees the same scenario many
times in a short interval.  :class:`MicroBatcher` exploits that: run
requests submitted while a flush window is open are collected, grouped
by scenario, and executed per scenario on one warm
:class:`~repro.api.session.MulticastSession` via ``run_batch`` — one
mechanism lookup and one memoised ``xi`` cache shared across every
request of the group, while distinct scenarios execute concurrently on
the worker pool.

Batching changes *when* work runs, never *what* it computes: each
request's results are a pure function of ``(scenario, mechanism,
profiles)`` (the caches only avoid recomputing pure functions), so a
response is bit-identical whether the request flushed alone, rode a
batch, or bypassed the batcher entirely — property-tested in
``tests/test_service_property.py``.

The flush window is the latency the operator trades for throughput
(``window=0`` disables collection: every request flushes immediately,
still through the store's warm sessions).  ``max_batch`` bounds the
collection — a full window flushes early, so the pending queue can never
grow beyond one window's worth of admitted requests.

Telemetry: counters, the flush-occupancy histogram, and the
``queue``/``build``/``execute`` legs of the per-request stage histogram
all publish into the store's registry (the service injects one shared
registry, so ``/metrics`` sees the whole pipeline).  ``submit_timed``
returns the per-request stage timings alongside the results — the
server's request log consumes them.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import Executor

from repro.observability import (
    BATCH_OCCUPANCY_BUCKETS,
    NULL_SPAN_RECORDER,
    stage_histogram,
)
from repro.observability.tracing import SpanContext
from repro.service.protocol import RunRequest
from repro.service.state import SessionStore, StoreEntry


class MicroBatcher:
    """Collects in-flight run requests and executes them per-scenario.

    Must be driven from one asyncio event loop (``submit`` is a
    coroutine); the actual mechanism execution happens on
    ``executor`` (default: the loop's default thread pool), so the loop
    stays responsive while mechanisms run.
    """

    def __init__(self, store: SessionStore, *, window: float = 0.005,
                 max_batch: int = 32, executor: Executor | None = None,
                 spans=None) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        self.store = store
        self.window = max(0.0, float(window))
        self.max_batch = int(max_batch)
        self._executor = executor
        # Request-span recorder (tracing): each flush becomes one span
        # (rooting its own trace — the requests it serves belong to
        # *different* traces), and every request's queue/execute legs
        # are recorded as children of that request's own span, linked
        # to the flush via flush_trace_id/flush_span_id attributes.
        self.spans = spans if spans is not None else NULL_SPAN_RECORDER
        self._pending: list[tuple[RunRequest, asyncio.Future, float,
                                  SpanContext | None]] = []
        self._flush_handle: asyncio.TimerHandle | None = None
        self._tasks: set[asyncio.Task] = set()
        # -- telemetry (in the store's registry, one shared lock) -----------
        self.registry = store.registry
        self._c_requests = self.registry.counter(
            "repro_batch_requests_total", "Run requests submitted for batching")
        self._c_flushes = self.registry.counter(
            "repro_batch_flushes_total", "Micro-batch flushes executed")
        self._c_batched = self.registry.counter(
            "repro_batch_batched_requests_total",
            "Requests that shared their flush with at least one other")
        self._h_occupancy = self.registry.histogram(
            "repro_batch_occupancy", "Requests per micro-batch flush",
            buckets=BATCH_OCCUPANCY_BUCKETS)
        self.registry.gauge(
            "repro_batch_window_seconds",
            "Micro-batch flush window in force").set(self.window)
        self._g_max_seen = self.registry.gauge(
            "repro_batch_max_size", "Largest flush observed")
        self._h_stage = stage_histogram(self.registry)

    # -- submission ----------------------------------------------------------
    async def submit(self, request: RunRequest) -> list:
        """Price one request; resolves to its list of
        :class:`~repro.mechanism.base.MechanismResult`."""
        results, _ = await self.submit_timed(request)
        return results

    async def submit_timed(self, request: RunRequest,
                           context: SpanContext | None = None
                           ) -> tuple[list, dict]:
        """Like :meth:`submit`, but resolves to ``(results, stages)``
        where ``stages`` carries the request's queue/build/execute leg
        timings in seconds.  ``context`` is the request span to parent
        this request's queue/execute spans under (``None``: untraced)."""
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._pending.append((request, future, time.perf_counter(), context))
        self._c_requests.inc()
        if self.window <= 0.0 or len(self._pending) >= self.max_batch:
            self._flush()
        elif self._flush_handle is None:
            self._flush_handle = loop.call_later(self.window, self._flush)
        return await future

    def pending(self) -> int:
        """Requests collected but not yet flushed."""
        return len(self._pending)

    def in_flight(self) -> int:
        """Requests handed to the executor whose results are still due."""
        return sum(task._repro_size for task in self._tasks)  # type: ignore[attr-defined]

    # -- flushing ------------------------------------------------------------
    def _flush(self) -> None:
        if self._flush_handle is not None:
            self._flush_handle.cancel()
            self._flush_handle = None
        batch, self._pending = self._pending, []
        if not batch:
            return
        with self.registry.lock:
            self._c_flushes.inc()
            self._g_max_seen.set_max(len(batch))
            self._h_occupancy.observe(len(batch))
            if len(batch) > 1:
                self._c_batched.inc(len(batch))
        groups: dict[str, list[tuple[RunRequest, asyncio.Future, float,
                                     SpanContext | None]]] = {}
        for item in batch:
            groups.setdefault(item[0].key, []).append(item)
        # One flush span covers the whole flush (all its scenario groups);
        # it finishes when the last group's work completes.  It roots its
        # own trace — the requests it serves each live in their own —
        # and the per-request execute spans link back to it.
        flush_span = (self.spans.span("flush",
                                      attributes={"requests": len(batch)})
                      if self.spans.enabled else None)
        remaining = [len(groups)]

        def group_done(_task) -> None:
            remaining[0] -= 1
            if remaining[0] == 0 and flush_span is not None:
                flush_span.finish()

        for group in groups.values():
            task = asyncio.ensure_future(self._execute_group(
                group,
                flush_context=(flush_span.context
                               if flush_span is not None else None),
                batch_size=len(batch)))
            task._repro_size = len(group)  # type: ignore[attr-defined]
            self._tasks.add(task)
            task.add_done_callback(self._tasks.discard)
            task.add_done_callback(group_done)

    async def _execute_group(
            self,
            group: list[tuple[RunRequest, asyncio.Future, float,
                              SpanContext | None]],
            *, flush_context: SpanContext | None = None,
            batch_size: int = 1) -> None:
        loop = asyncio.get_running_loop()
        requests = [(request, enqueued, context)
                    for request, _, enqueued, context in group]
        try:
            outcomes = await loop.run_in_executor(
                self._executor, self._run_group, requests, flush_context,
                batch_size)
        except BaseException as exc:  # store build failure: fail the group
            for _, future, _, _ in group:
                if not future.cancelled():
                    future.set_exception(exc)
            return
        for (_, future, _, _), outcome in zip(group, outcomes):
            if future.cancelled():
                continue
            if isinstance(outcome, BaseException):
                future.set_exception(outcome)
            else:
                future.set_result(outcome)

    def _run_group(self, requests: list[tuple[RunRequest, float,
                                              SpanContext | None]],
                   flush_context: SpanContext | None = None,
                   batch_size: int = 1) -> list:
        """Synchronous worker body: one store lookup for the whole group,
        then every request priced on the shared session.  Per-request
        failures (e.g. a profile naming stray agents) stay per-request —
        they must not poison the rest of the batch."""
        started = time.perf_counter()
        first, first_context = requests[0][0], requests[0][2]
        # The group-shared store lookup becomes one ``build`` span in the
        # *first* request's trace (it is shared work — duplicating it
        # into every trace would overcount the critical path); a cold
        # miss nests its ``session_build`` span under this one.
        build_span = (self.spans.span("build", parent=first_context)
                      if first_context is not None else None)
        entry = self.store.get(
            first.scenario, key=first.key,
            span_context=(build_span.context
                          if build_span is not None else None))
        build = time.perf_counter() - started
        if build_span is not None:
            build_span.finish()
        self._h_stage.labels(stage="build").observe(build)
        link = ({"flush_trace_id": flush_context.trace_id,
                 "flush_span_id": flush_context.span_id}
                if flush_context is not None else {})
        outcomes: list = []
        for request, enqueued, context in requests:
            queue = max(0.0, started - enqueued)
            self._h_stage.labels(stage="queue").observe(queue)
            if context is not None:
                self.spans.observe("queue", duration=queue, parent=context)
            t0 = time.perf_counter()
            try:
                results = self._run_one(entry, request)
            except Exception as exc:
                if context is not None:
                    self.spans.observe(
                        "execute", duration=time.perf_counter() - t0,
                        parent=context, status="error",
                        attributes={**link, "batch_size": batch_size,
                                    "error": f"{type(exc).__name__}: {exc}"})
                outcomes.append(exc)
                continue
            execute = time.perf_counter() - t0
            self._h_stage.labels(stage="execute").observe(execute)
            if context is not None:
                self.spans.observe(
                    "execute", duration=execute, parent=context,
                    attributes={**link, "batch_size": batch_size})
            outcomes.append((results, {
                "queue": queue, "build": build, "execute": execute}))
        return outcomes

    @staticmethod
    def _run_one(entry: StoreEntry, request: RunRequest) -> list:
        if request.group is not None:
            # MultiGroupSession: the per-group DynamicSessions mutate
            # epoch state, so the entry lock serializes here too.
            with entry.exec_lock:
                return entry.session.run_epoch(
                    request.group, request.epoch, request.mechanism,
                    list(request.profiles))
        if request.is_dynamic:
            # DynamicSession mutates epoch state across calls; its entry
            # lock serializes executions (static sessions need no lock —
            # MulticastSession is internally thread-safe).
            with entry.exec_lock:
                return entry.session.run_epoch(
                    request.epoch, request.mechanism, list(request.profiles))
        return entry.session.run_batch(request.mechanism, list(request.profiles))

    # -- lifecycle -----------------------------------------------------------
    async def drain(self) -> None:
        """Flush anything pending and wait for all in-flight work."""
        self._flush()
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    def stats(self) -> dict:
        """Counter snapshot — one atomic read under the registry lock."""
        with self.registry.lock:
            return {
                "window": self.window,
                "max_batch": self.max_batch,
                "requests": int(self._c_requests.value),
                "batches": int(self._c_flushes.value),
                "batched_requests": int(self._c_batched.value),
                "max_batch_size": int(self._g_max_seen.value),
                "pending": len(self._pending),
            }
