"""Bounded LRU session store: the serving layer's warm state.

The serving layer's warm state is the session: a
:class:`~repro.api.session.MulticastSession` (or a
:class:`~repro.dynamic.session.DynamicSession` for churn scenarios) owns
everything expensive a scenario ever builds — network, universal trees,
metric closure, memoised ``xi`` caches.  :class:`SessionStore` keeps a
bounded, least-recently-used set of them keyed by the scenario's *wire
form* (``spec.to_json()``), so identical requests from any connection
land on the same warm state.

Two properties matter under concurrency:

* **one build per cold key** — the store's one serving caller, the
  :class:`~repro.service.batching.MicroBatcher`, runs at most one flush
  per store key and makes one lookup per flush, so lookups of one key
  never overlap and a cold scenario is built exactly once however many
  requests race on it.  The store itself does not join concurrent
  lookups: two callers that race on one cold key each build.
* **eviction is safe mid-flight** — evicting a key only drops the
  store's *reference*.  A session handed out earlier stays fully usable
  (it is a self-contained cache of pure functions); the next request for
  that scenario simply rebuilds cold.

Counters live in a :class:`~repro.observability.metrics.MetricsRegistry`
(each store defaults to a private one, so per-store stats stay isolated;
the service injects its own so ``/metrics`` sees them).  Every lookup
outcome — hit or miss — is recorded in one atomic compound update under
the registry lock, which is what makes ``hits + misses == lookups`` hold
in every concurrent snapshot, not just quiescent ones.

``capacity=0`` disables retention entirely (every request builds cold)
— the configuration the naive baseline in ``benchmarks/bench_service.py``
serves from.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.api.session import MulticastSession
from repro.api.spec import ScenarioSpec
from repro.dynamic.session import DynamicSession
from repro.dynamic.spec import DynamicScenarioSpec
from repro.observability import NULL_SPAN_RECORDER, MetricsRegistry, scenario_hash
from repro.traces.session import MultiGroupSession
from repro.traces.spec import MultiGroupScenarioSpec


def scenario_key(spec: ScenarioSpec) -> str:
    """The store key of a scenario: its canonical wire form.  Dynamic
    scenarios embed their churn model (multi-group ones their group and
    move histories), so specs over the same layout never collide."""
    return spec.to_json()


def build_session(spec: ScenarioSpec, *, registry: MetricsRegistry | None = None):
    """The session type a scenario warrants: multi-group scenarios get the
    substrate-sharing :class:`MultiGroupSession`, churn scenarios the
    incremental :class:`DynamicSession`, static ones the caching
    :class:`MulticastSession`.  With a ``registry`` the session publishes
    its artifact-build timings and cache telemetry into it."""
    if isinstance(spec, MultiGroupScenarioSpec):
        return MultiGroupSession(spec, registry=registry)
    if isinstance(spec, DynamicScenarioSpec):
        return DynamicSession(spec, registry=registry)
    return MulticastSession(spec, registry=registry)


class StoreEntry:
    """One stored session plus its execution lock.

    :class:`MulticastSession` is internally thread-safe, but
    :class:`DynamicSession` (and the per-group sessions inside a
    :class:`MultiGroupSession`) mutate epoch state across calls —
    ``exec_lock`` serializes executions on one entry where the caller
    needs that (the micro-batcher takes it for dynamic sessions only).
    """

    __slots__ = ("session", "exec_lock")

    def __init__(self, session) -> None:
        self.session = session
        self.exec_lock = threading.Lock()

    @property
    def is_dynamic(self) -> bool:
        return isinstance(self.session, (DynamicSession, MultiGroupSession))


class SessionStore:
    """Thread-safe bounded LRU of scenario sessions with atomic
    hit/miss/eviction counters."""

    def __init__(self, capacity: int = 64, *,
                 registry: MetricsRegistry | None = None,
                 spans=None) -> None:
        capacity = int(capacity)
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        # Request-span recorder: cold builds are the expensive store path,
        # so the owner of a build records a ``session_build`` span (child
        # of the requesting trace when a context is threaded through).
        self.spans = spans if spans is not None else NULL_SPAN_RECORDER
        self._lock = threading.Lock()
        self._entries: OrderedDict[str, StoreEntry] = OrderedDict()
        # Sessions only publish telemetry when the registry was injected
        # (monkeypatched builders in tests stay single-argument-callable,
        # and a bare SessionStore() never touches the process default).
        self._session_registry = registry
        self.registry = registry if registry is not None else MetricsRegistry()
        self._c_lookups = self.registry.counter(
            "repro_store_lookups_total",
            "Session-store lookups (hits + misses)")
        self._c_hits = self.registry.counter(
            "repro_store_hits_total", "Lookups answered from the warm LRU")
        self._c_misses = self.registry.counter(
            "repro_store_misses_total", "Lookups that claimed a cold build")
        self._c_evictions = self.registry.counter(
            "repro_store_evictions_total", "Sessions dropped by LRU pressure")
        self._g_size = self.registry.gauge(
            "repro_store_size", "Sessions currently retained")
        self.registry.gauge(
            "repro_store_capacity", "Session-store LRU capacity").set(capacity)

    def _record(self, outcome) -> None:
        """One atomic compound counter update: lookups and its outcome
        move together or not at all."""
        with self.registry.lock:
            self._c_lookups.inc()
            outcome.inc()

    def get(self, spec: ScenarioSpec, *, key: str | None = None,
            span_context=None) -> StoreEntry:
        """The entry for ``spec``: warm from the LRU, or built here.
        ``span_context`` parents the cold path's ``session_build`` span
        (hits record nothing: they are cheap).

        One caller per key at a time: lookups of one key must not
        overlap (the micro-batcher's one flush per key guarantees it),
        or each overlapping cold lookup builds its own session."""
        if key is None:
            key = scenario_key(spec)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self._record(self._c_hits)
                return entry
            self._record(self._c_misses)
        build_span = self.spans.span(
            "session_build", parent=span_context,
            attributes={"scenario": scenario_hash(key)})
        try:
            if self._session_registry is None:
                entry = StoreEntry(build_session(spec))
            else:
                entry = StoreEntry(
                    build_session(spec, registry=self._session_registry))
        except BaseException as exc:
            build_span.set("error", f"{type(exc).__name__}: {exc}")
            build_span.finish(status="error")
            raise
        build_span.finish()
        with self._lock:
            evicted = 0
            if self.capacity > 0:
                self._entries[key] = entry
                while len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    evicted += 1
            size = len(self._entries)
            with self.registry.lock:
                if evicted:
                    self._c_evictions.inc(evicted)
                self._g_size.set(size)
        return entry

    # -- inspection / management --------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[str]:
        """Stored keys, least-recently-used first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop every stored session (counters keep accumulating)."""
        with self._lock:
            self._entries.clear()
            with self.registry.lock:
                self._g_size.set(0)

    def stats(self) -> dict:
        """Counter snapshot — one atomic read under the registry lock, so
        ``hits + misses == lookups`` in every snapshot."""
        with self._lock:
            size = len(self._entries)
            with self.registry.lock:
                return {
                    "capacity": self.capacity,
                    "size": size,
                    "lookups": int(self._c_lookups.value),
                    "hits": int(self._c_hits.value),
                    "misses": int(self._c_misses.value),
                    "evictions": int(self._c_evictions.value),
                }

    def __repr__(self) -> str:
        s = self.stats()
        return (f"SessionStore(size={s['size']}/{s['capacity']}, "
                f"hits={s['hits']}, misses={s['misses']}, "
                f"evictions={s['evictions']})")
