"""Batched mechanism pipeline: many profiles / many instances, one sweep.

A production deployment of these mechanisms doesn't price one utility
profile at a time — it serves streams of scenarios over a slowly-changing
network.  Everything that depends only on the *instance* (the universal
tree, the metric closure, the cost-share values ``xi(R)`` of every
receiver set the Moulin-Shenker iteration visits) is reusable across
profiles; only the drop sequence is profile-specific.  This module holds
the pieces that reuse it:

* :class:`MethodCache` — a transparent memo for any cost-sharing method
  ``xi(R) -> shares``.  Receiver sets repeat heavily across profiles (the
  iteration always starts from the full set and descends), so hit rates
  climb quickly.
* :func:`run_profiles_lockstep` — Moulin-Shenker over a profile batch
  with the cold ``xi`` sets of each round evaluated in one vectorised
  call (the universal-tree mechanisms' ``run_many``).
* :func:`group_consecutive` — partition a work stream by scenario key
  (the sweep executor's scheduling unit).
* :func:`sweep_instances` — evaluate a per-instance runner over an
  instance stream, collecting rows.

Results are identical to per-call mechanism runs — the caches only avoid
recomputing pure functions.

:meth:`repro.api.MulticastSession.run_batch` is the batch entry point
built on these pieces: it binds a declarative scenario spec, shares one
:class:`MethodCache` per registered mechanism, and additionally shares
the scenario artifacts (universal trees, metric closure) *across*
mechanisms.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Mapping, Sequence
from typing import Any

from repro.mechanism.base import Agent, MechanismResult, Profile
from repro.mechanism.moulin_shenker import Method, moulin_shenker


class MethodCache:
    """Memoise a cost-sharing method ``xi(R) -> {agent: share}``.

    The wrapped method must be pure (every ``xi`` in this codebase is).
    Returned dicts are fresh copies, so callers may mutate them safely.

    Safe under concurrent access: lookups and insertions are guarded by a
    lock, while the wrapped method runs *outside* it — two threads racing
    on the same cold key may both compute ``xi`` (purity makes the
    duplicate harmless; the first writer's dict wins and the loser counts
    a hit), but no thread ever observes a partially-built entry.

    ``counters`` optionally mirrors every hit/miss into a pair of
    external instruments with an ``inc()`` method (the session facade
    passes registry counters) — the plain ``hits``/``misses`` attributes
    stay authoritative either way.
    """

    def __init__(self, method: Method, *, counters=None) -> None:
        self._method = method
        self._cache: dict[frozenset, dict[Agent, float]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self._on_hit, self._on_miss = counters if counters else (None, None)

    def _count_hit(self) -> None:
        self.hits += 1
        if self._on_hit is not None:
            self._on_hit.inc()

    def _count_miss(self) -> None:
        self.misses += 1
        if self._on_miss is not None:
            self._on_miss.inc()

    def __call__(self, R: frozenset) -> dict[Agent, float]:
        key = frozenset(R)
        with self._lock:
            found = self._cache.get(key)
            if found is not None:
                self._count_hit()
                return dict(found)
        computed = dict(self._method(key))
        with self._lock:
            found = self._cache.get(key)
            if found is None:
                self._cache[key] = computed
                self._count_miss()
                found = computed
            else:
                self._count_hit()
        return dict(found)

    def put(self, R: frozenset, shares: Mapping[Agent, float]) -> None:
        """Seed the memo with an externally computed ``xi(R)`` (the batch
        evaluators compute many sets in one vectorized pass and deposit
        them here).  First writer wins, like racing ``__call__`` computes;
        counts as a miss — it represents one real evaluation."""
        key = frozenset(R)
        with self._lock:
            if key not in self._cache:
                self._cache[key] = dict(shares)
                self._count_miss()

    def __contains__(self, R: frozenset) -> bool:
        with self._lock:
            return frozenset(R) in self._cache

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        with self._lock:
            self._cache.clear()
            self.hits = 0
            self.misses = 0


def run_profiles_lockstep(
    agents: Sequence[Agent],
    method_many: Callable[[list[frozenset]], list[dict[Agent, float]]],
    profiles: Sequence[Profile],
    *,
    method: MethodCache,
    build: Callable[[frozenset], tuple[float, object | None]] | None = None,
) -> list[MechanismResult]:
    """Moulin-Shenker over a profile batch with *batched* xi evaluation.

    Every profile's drop iteration advances in lockstep: each round
    collects the distinct receiver sets the still-running profiles sit
    on, evaluates the cold ones in one ``method_many`` call (e.g.
    :func:`repro.engine.trees.water_filling_shares_many` — one flat-array
    pass instead of per-set kernels), and deposits them into ``method``.
    The returned results come from the real per-profile
    :func:`~repro.mechanism.moulin_shenker.moulin_shenker` driver replayed
    over the warmed cache, so they are **bit-identical to the serial
    loop by construction** — the lockstep pass only decides what to
    precompute; any set it mispredicts is simply computed serially on
    replay.
    """
    from repro.mechanism.moulin_shenker import _EPS

    profiles = list(profiles)
    current = [set(agents) for _ in profiles]
    running = [bool(R) for R in current]
    while any(running):
        need: list[frozenset] = []
        seen: set[frozenset] = set()
        for p, alive in enumerate(running):
            if alive:
                key = frozenset(current[p])
                if key not in seen and key not in method:
                    seen.add(key)
                    need.append(key)
        if need:
            for R, shares in zip(need, method_many(need)):
                method.put(R, shares)
        for p, alive in enumerate(running):
            if not alive:
                continue
            shares = method(frozenset(current[p]))
            deficient = [i for i in current[p]
                         if profiles[p][i] < shares[i] - _EPS]
            if not deficient:
                running[p] = False
                continue
            current[p].difference_update(deficient)
            if not current[p]:
                running[p] = False
    return [moulin_shenker(agents, method, profile, build=build)
            for profile in profiles]


def group_consecutive(
    items: Iterable[Any],
    key: Callable[[Any], Any],
) -> list[tuple[Any, ...]]:
    """Partition a work stream into per-key groups, preserving encounter
    order (of both groups and members).

    The sweep executor schedules one group per task so everything sharing
    a scenario lands in the same worker and reuses one session; keys must
    be hashable.  Unlike ``itertools.groupby`` this groups *all* items of
    a key even when the stream is non-contiguous (e.g. after a resume
    filtered out completed items).
    """
    groups: dict[Any, list[Any]] = {}
    for item in items:
        groups.setdefault(key(item), []).append(item)
    return [tuple(members) for members in groups.values()]


def sweep_instances(
    instances: Iterable[Any],
    runner: Callable[[Any], Mapping[str, Any]],
) -> list[dict[str, Any]]:
    """Evaluate ``runner`` on every instance, tagging rows with an index.

    The experiment-suite convenience (EXP-T1 runs on it): ``runner``
    returns one plain dict per instance, and the instance index becomes
    the leading ``"instance"`` column unless the runner set one — ready
    for :func:`repro.analysis.tables.format_table`.
    """
    rows: list[dict[str, Any]] = []
    for idx, instance in enumerate(instances):
        row = dict(runner(instance))
        if "instance" not in row:
            row = {"instance": idx, **row}
        rows.append(row)
    return rows
