"""Group-committed mechanism execution over the session store.

A serving process under concurrent load sees the same scenario many
times in a short interval.  :class:`MicroBatcher` group-commits per
scenario key: a request whose key has no flush scheduled or running
schedules one for the next loop iteration (so a ``/v1/batch`` envelope
or a burst shares it), and requests that arrive while their key's flush
runs go together in the key's next flush, which the running one starts
as it completes.  No clock is involved: a lone request flushes at once.
A flush makes one store lookup and prices its requests serially on the
one warm :class:`~repro.api.session.MulticastSession`; distinct keys
flush concurrently on the worker pool, so one key's cold build never
holds back another key's answers.

Batching changes *when* work runs, never *what* it computes: each
request's results are a pure function of ``(scenario, mechanism,
profiles)`` (the caches only avoid recomputing pure functions), so a
response is bit-identical whether the request flushed alone, rode a
batch, or bypassed the batcher entirely — property-tested in
``tests/test_service_property.py``.

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
    """Group-commits run requests per scenario key and executes them.

    Must be driven from one asyncio event loop (``submit`` is a
    coroutine); the actual mechanism execution happens on
    ``executor`` (default: the loop's default thread pool), so the loop
    stays responsive while mechanisms run.
    """

    def __init__(self, store: SessionStore, *, executor: Executor | None = None,
                 spans=None) -> None:
        self.store = store
        self._executor = executor
        # Request-span recorder (tracing): each flush becomes one span
        # (rooting its own trace — the requests it serves belong to
        # *different* traces), and every request's queue/execute legs
        # are recorded as children of that request's own span, linked
        # to the flush via flush_trace_id/flush_span_id attributes.
        self.spans = spans if spans is not None else NULL_SPAN_RECORDER
        # Per scenario key: the requests waiting for the key's next
        # flush, and the flush running now.  A key that is pending but
        # not running has its flush scheduled for the next loop
        # iteration; one that is both starts its next flush when the
        # running one completes.
        self._pending: dict[str, list[tuple[RunRequest, asyncio.Future, float,
                                            SpanContext | None]]] = {}
        self._running: dict[str, asyncio.Task] = {}
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
        key = request.key
        if key not in self._pending and key not in self._running:
            loop.call_soon(self._flush, key)
        self._pending.setdefault(key, []).append(
            (request, future, time.perf_counter(), context))
        self._c_requests.inc()
        return await future

    def pending(self) -> int:
        """Requests waiting for their key's flush to start."""
        return sum(map(len, self._pending.values()))

    # -- flushing ------------------------------------------------------------
    def _flush(self, key: str) -> None:
        group = self._pending.pop(key)
        with self.registry.lock:
            self._c_flushes.inc()
            self._g_max_seen.set_max(len(group))
            self._h_occupancy.observe(len(group))
            if len(group) > 1:
                self._c_batched.inc(len(group))
        flush_span = (self.spans.span("flush",
                                      attributes={"requests": len(group)})
                      if self.spans.enabled else None)
        task = asyncio.ensure_future(self._execute_group(
            group,
            flush_context=flush_span.context if flush_span is not None else None))
        self._running[key] = task
        task.add_done_callback(lambda _: self._flushed(key, flush_span))

    def _flushed(self, key: str, flush_span) -> None:
        """A key's flush completed: start the key's next flush with
        every request that arrived meanwhile."""
        if flush_span is not None:
            flush_span.finish()
        del self._running[key]
        if key in self._pending:
            self._flush(key)

    async def _execute_group(
            self,
            group: list[tuple[RunRequest, asyncio.Future, float,
                              SpanContext | None]],
            *, flush_context: SpanContext | None = None) -> None:
        loop = asyncio.get_running_loop()
        requests = [(request, enqueued, context)
                    for request, _, enqueued, context in group]
        try:
            outcomes = await loop.run_in_executor(
                self._executor, self._run_group, requests, flush_context)
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
                   flush_context: SpanContext | None = None) -> list:
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
        flush = ({"flush_trace_id": flush_context.trace_id,
                  "flush_span_id": flush_context.span_id,
                  "batch_size": len(requests)}
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
                        attributes={**flush,
                                    "error": f"{type(exc).__name__}: {exc}"})
                outcomes.append(exc)
                continue
            execute = time.perf_counter() - t0
            self._h_stage.labels(stage="execute").observe(execute)
            if context is not None:
                self.spans.observe(
                    "execute", duration=execute, parent=context,
                    attributes=flush)
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
        """Wait until every submitted request has been answered."""
        while self._pending or self._running:
            await asyncio.sleep(0)  # let scheduled flushes start
            await asyncio.gather(*self._running.values(),
                                 return_exceptions=True)

    def stats(self) -> dict:
        """Counter snapshot — one atomic read under the registry lock."""
        with self.registry.lock:
            return {
                "requests": int(self._c_requests.value),
                "batches": int(self._c_flushes.value),
                "batched_requests": int(self._c_batched.value),
                "max_batch_size": int(self._g_max_seen.value),
                "pending": self.pending(),
            }
