"""The caching session facade: one scenario, many priced requests.

A production service prices streams of utility profiles (and many
mechanisms) over one slowly-changing network.  Everything that depends
only on the *scenario* is built lazily, once, and shared:

* the :class:`~repro.wireless.CostGraph` itself (rebuilt from the spec),
  and its dense array backend;
* universal trees, per construction kind (shared by ``tree-shapley`` and
  ``tree-mc``);
* the metric closure with its predecessor rows (shared by every ``jv``
  parameterization: the shares and the served trees);
* mechanism instances, per ``(name, params)``;
* memoised cost-sharing methods ``xi(R)`` (a
  :class:`~repro.engine.batch.MethodCache` per mechanism) for the
  mechanisms that declare one — receiver sets repeat heavily across
  profiles, so hit rates climb quickly.

Outputs are bit-identical to direct construction: the caches only avoid
recomputing pure functions (property-tested in ``tests/test_api_session.py``
and asserted every run by EXP-S2).
"""

from __future__ import annotations

import inspect
import threading
import time
from collections.abc import Iterable, Mapping

from repro.api.spec import MechanismSpec, ScenarioSpec
from repro.engine.batch import MethodCache
from repro.mechanism.base import CostSharingMechanism, MechanismResult, Profile
from repro.wireless.cost_graph import CostGraph
from repro.wireless.universal_tree import UniversalTree


class MulticastSession:
    """A long-lived solver session bound to one :class:`ScenarioSpec`.

    Accepts a spec, anything :meth:`ScenarioSpec.from_network` accepts
    (an already-built :class:`CostGraph`), or a plain dict/JSON-shaped
    mapping.  ``run``/``run_batch`` address mechanisms by registry name
    or :class:`MechanismSpec`.

    Safe under concurrent access: every lazy build (network, universal
    trees, metric closure, mechanism instances, method caches) is guarded
    by one reentrant lock, so racing threads observe exactly one fully
    built artifact per key; the mechanism runs themselves execute outside
    the lock against read-only scenario state (the memoised ``xi`` caches
    carry their own lock — see :class:`~repro.engine.batch.MethodCache`).
    The service layer's micro-batcher (``repro.service.batching``)
    additionally ensures a cold session is *built* once, but a session
    reached by several threads stays correct without it — regression
    tested against the serial oracle in
    ``tests/test_api_session_concurrency.py``.
    """

    def __init__(self, scenario: ScenarioSpec | CostGraph | Mapping, *,
                 source: int | None = None, registry=None) -> None:
        if isinstance(scenario, CostGraph):
            self._network = scenario
            scenario = ScenarioSpec.from_network(scenario, source=source or 0)
        elif isinstance(scenario, ScenarioSpec):
            self._network = None
        elif isinstance(scenario, Mapping):
            scenario = ScenarioSpec.from_dict(scenario)
            self._network = None
        else:
            raise TypeError(
                f"scenario must be a ScenarioSpec, CostGraph or mapping, got {type(scenario).__name__}"
            )
        if source is not None and source != scenario.source:
            raise ValueError(
                f"source={source} conflicts with the spec's source={scenario.source}"
            )
        self.scenario = scenario
        # Telemetry is strictly opt-in: without a registry the session
        # publishes nothing and pays nothing (direct constructions keep
        # their benchmarked facade overhead).
        if registry is not None:
            self._h_build = registry.histogram(
                "repro_session_build_seconds",
                "Scenario artifact build latency (seconds)",
                labels=("artifact",))
            xi = registry.counter(
                "repro_xi_cache_total", "Memoised xi(R) lookups by outcome",
                labels=("result",))
            self._xi_counters = (xi.labels(result="hit"),
                                 xi.labels(result="miss"))
        else:
            self._h_build = None
            self._xi_counters = None
        self._lock = threading.RLock()
        self._trees: dict[str, UniversalTree] = {}
        self._closure = None
        self._terminal_closure = None
        self._mechanisms: dict[tuple, CostSharingMechanism] = {}
        self._method_caches: dict[tuple, MethodCache] = {}
        self._builder_defaults: dict[str, dict] = {}

    # -- shared scenario state (built lazily, cached) -----------------------
    @property
    def source(self) -> int:
        return self.scenario.source

    def _timed_build(self, artifact: str, build):
        """Run one lazy artifact build, observing its latency when a
        registry is attached (called with the session lock held)."""
        if self._h_build is None:
            return build()
        t0 = time.perf_counter()
        built = build()
        self._h_build.labels(artifact=artifact).observe(time.perf_counter() - t0)
        return built

    @property
    def network(self) -> CostGraph:
        """The scenario's network (built once)."""
        with self._lock:
            if self._network is None:
                self._network = self._timed_build(
                    "network", self.scenario.build_network)
            return self._network

    def agents(self) -> list[int]:
        return self.scenario.agents()

    def dense(self):
        """The network's dense array backend (cached on the network)."""
        return self.network.as_dense()

    def universal_tree(self, kind: str | None = None) -> UniversalTree:
        """The universal tree of construction ``kind`` (default: the
        spec's ``tree``), built once per kind."""
        kind = kind or self.scenario.tree
        with self._lock:
            tree = self._trees.get(kind)
            if tree is None:
                tree = self._timed_build(
                    "tree",
                    lambda: UniversalTree.build(self.network, self.source, kind))
                self._trees[kind] = tree
            return tree

    def metric_closure(self):
        """The all-pairs closure of the network: a
        :class:`~repro.engine.closure.TerminalClosure` sourced at every
        station, distance and predecessor rows from one batched Dijkstra
        (built once; shared by every Jain-Vazirani parameterization, its
        shares and its served trees)."""
        with self._lock:
            if self._closure is None:
                from repro.engine.closure import TerminalClosure

                self._closure = self._timed_build(
                    "closure", lambda: TerminalClosure.all_stations(self.network))
            return self._closure

    def terminal_closure(self):
        """The cheapest closure that can price this scenario's agents.

        With an explicit ``receivers`` subset this is a terminal-sourced
        :class:`~repro.engine.closure.TerminalClosure` over
        ``{source} + receivers`` — ``O(k n^2)`` to build instead of the
        ``O(n^3)`` all-pairs pass, with bit-identical rows (and therefore
        bit-identical shares and served trees).  Without one, every
        station is a potential terminal, so this falls through to
        :meth:`metric_closure`.
        """
        if self.scenario.receivers is None:
            return self.metric_closure()
        with self._lock:
            if self._terminal_closure is None:
                from repro.engine.closure import TerminalClosure

                terminals = [self.source, *self.scenario.receivers]
                self._terminal_closure = self._timed_build(
                    "closure",
                    lambda: TerminalClosure.from_network(self.network, terminals))
            return self._terminal_closure

    # -- mechanisms ---------------------------------------------------------
    def _key(self, name: str, params: Mapping) -> tuple:
        return MechanismSpec(name, dict(params)).key()

    def _canonical_params(self, name: str, params: dict) -> dict:
        """Fill in the builder's keyword defaults (and resolve ``tree=None``
        to the spec's kind) so equivalent requests — parameter omitted vs
        passed explicitly — share one mechanism instance and one xi cache."""
        with self._lock:
            defaults = self._builder_defaults.get(name)
        if defaults is None:
            from repro.api.registry import registered

            signature = inspect.signature(registered(name).builder)
            defaults = {
                p.name: p.default
                for p in signature.parameters.values()
                if p.kind == p.KEYWORD_ONLY and p.default is not p.empty
            }
            with self._lock:
                self._builder_defaults[name] = defaults
        canonical = {**defaults, **params}
        if "tree" in canonical and canonical["tree"] is None:
            canonical["tree"] = self.scenario.tree
        return canonical

    def _resolve(self, mechanism: str | MechanismSpec, params: Mapping) -> tuple[str, dict]:
        if isinstance(mechanism, MechanismSpec):
            name, params = mechanism.name, {**mechanism.params, **params}
        else:
            name, params = mechanism, dict(params)
        return name, self._canonical_params(name, params)

    def mechanism(self, mechanism: str | MechanismSpec, **params) -> CostSharingMechanism:
        """The (cached) mechanism instance for ``(name, params)``."""
        from repro.api.registry import registered

        name, params = self._resolve(mechanism, params)
        key = self._key(name, params)
        with self._lock:
            mech = self._mechanisms.get(key)
            if mech is None:
                mech = registered(name).builder(self, **params)
                self._mechanisms[key] = mech
            return mech

    def method_cache(self, mechanism: str | MechanismSpec, **params) -> MethodCache | None:
        """The memoised cost-sharing method for ``(name, params)``, or
        ``None`` for mechanisms without a reusable ``xi`` (their per-run
        work is profile-specific)."""
        from repro.api.registry import registered

        name, params = self._resolve(mechanism, params)
        key = self._key(name, params)
        with self._lock:
            cache = self._method_caches.get(key)
            if cache is None:
                entry = registered(name)
                if entry.method_of is None:
                    return None
                cache = MethodCache(
                    entry.method_of(self.mechanism(name, **params)),
                    counters=self._xi_counters)
                self._method_caches[key] = cache
            return cache

    def run(self, mechanism: str | MechanismSpec, profile: Profile,
            **params) -> MechanismResult:
        """Price one utility profile (bit-identical to direct construction)."""
        mech = self.mechanism(mechanism, **params)
        cache = self.method_cache(mechanism, **params)
        if cache is not None:
            return mech.run(profile, method=cache)
        return mech.run(profile)

    def run_batch(self, mechanism: str | MechanismSpec, profiles: Iterable[Profile],
                  **params) -> list[MechanismResult]:
        """Price a profile stream on the shared caches (one mechanism
        build, one method cache across the whole stream).

        Mechanisms that expose a vectorized ``run_many`` (the universal
        trees: one flat-array xi pass across every profile) take that
        path; the results are bit-identical to the per-profile loop —
        ``run_many`` only pre-seeds the shared cache and then replays the
        real per-profile driver over it.
        """
        mech = self.mechanism(mechanism, **params)
        cache = self.method_cache(mechanism, **params)
        profiles = list(profiles)
        if cache is not None:
            run_many = getattr(mech, "run_many", None)
            if run_many is not None and len(profiles) > 1:
                return run_many(profiles, method=cache)
            return [mech.run(profile, method=cache) for profile in profiles]
        return [mech.run(profile) for profile in profiles]

    def cache_info(self) -> dict:
        """Diagnostics: what the session has built and how the memoised
        methods are hitting."""
        with self._lock:
            return self._cache_info_locked()

    def _cache_info_locked(self) -> dict:
        per_name: dict[str, int] = {}
        for key in self._method_caches:
            per_name[key[0]] = per_name.get(key[0], 0) + 1

        def label(key: tuple) -> str:
            # Bare name unless several parameterizations coexist — then
            # each keeps its params so none shadows another.
            if per_name[key[0]] == 1:
                return key[0]
            return f"{key[0]} {dict(key[1])}"

        return {
            "network_built": self._network is not None,
            "trees": sorted(self._trees),
            "closure_built": self._closure is not None,
            "terminal_closure_built": self._terminal_closure is not None,
            "mechanisms": len(self._mechanisms),
            "methods": {
                label(key): {
                    "hits": cache.hits, "misses": cache.misses,
                    "hit_rate": cache.hit_rate,
                }
                for key, cache in self._method_caches.items()
            },
        }

    def __repr__(self) -> str:
        return (f"MulticastSession({self.scenario.kind!r}, n={self.scenario.n_stations}, "
                f"source={self.source})")
