"""The serving acceptance property: every path answers bit-identically.

For random scenario/mechanism/profile triples, the service's cold path
(fresh store), warm path (LRU hit), and micro-batched path (requests
sharing a flush) must produce responses *bit-identical* — compared
as sorted-key JSON bytes — to a direct cold
:class:`~repro.api.MulticastSession` run.  The store and batcher may only
change when work happens, never what it computes.
"""

from __future__ import annotations

import asyncio
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import MulticastSession, ScenarioSpec, result_to_dict
from repro.dynamic import ChurnSpec, DynamicScenarioSpec
from repro.geometry.layouts import LAYOUT_FAMILIES
from repro.service import CostSharingService, ServiceClient

MECHANISMS = ("tree-shapley", "tree-mc", "jv", "nwst", "wireless")

scenario_st = st.builds(
    ScenarioSpec.from_random,
    n=st.integers(min_value=4, max_value=9),
    alpha=st.sampled_from([1.0, 2.0, 3.0]),
    seed=st.integers(min_value=0, max_value=50),
    layout=st.sampled_from(LAYOUT_FAMILIES),
    tree=st.sampled_from(["spt", "mst"]),
)

utility_st = st.floats(min_value=0.0, max_value=25.0,
                       allow_nan=False, allow_infinity=False)


def _canon(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _direct_wire(spec: ScenarioSpec, mechanism: str, profiles) -> list[dict]:
    return [result_to_dict(r)
            for r in MulticastSession(spec).run_batch(mechanism, profiles)]


@settings(max_examples=20, deadline=None)
@given(scenario=scenario_st, mechanism=st.sampled_from(MECHANISMS),
       data=st.data())
def test_cold_warm_and_batched_paths_are_bit_identical(scenario, mechanism, data):
    profiles = data.draw(st.lists(
        st.fixed_dictionaries({a: utility_st for a in scenario.agents()}),
        min_size=1, max_size=3))
    direct = _direct_wire(scenario, mechanism, profiles)

    async def go():
        service = CostSharingService(cache_size=4)
        client = ServiceClient(service)
        cold_status, cold = await client.run(scenario, mechanism, profiles)
        warm_status, warm = await client.run(scenario, mechanism, profiles)
        # Batched: several concurrent requests for one scenario share
        # one flush.
        batched = await asyncio.gather(
            client.run(scenario, mechanism, profiles),
            client.run(scenario, mechanism, profiles[:1]),
            client.run(scenario, mechanism, profiles))
        await service.drain()
        return (cold_status, cold), (warm_status, warm), batched, service

    (cold_status, cold), (warm_status, warm), batched, service = asyncio.run(go())
    assert cold_status == warm_status == 200
    assert _canon(cold["results"]) == _canon(direct)
    assert _canon(cold) == _canon(warm)
    for status, payload in (batched[0], batched[2]):
        assert status == 200
        assert _canon(payload) == _canon(cold)
    assert batched[1][0] == 200
    assert _canon(batched[1][1]["results"]) == _canon(direct[:1])
    # The warm path actually exercised the cache (not a silent rebuild).
    assert service.store.stats()["hits"] >= 1


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=30),
       epoch=st.integers(min_value=0, max_value=2),
       mechanism=st.sampled_from(["tree-shapley", "jv"]),
       data=st.data())
def test_dynamic_epochs_match_cold_materialized_sessions(seed, epoch, mechanism, data):
    spec = DynamicScenarioSpec(
        kind="random", n=7, alpha=2.0, seed=seed,
        churn=ChurnSpec(epochs=3, seed=seed + 1,
                        join_rate=0.4, leave_rate=0.3))
    profiles = data.draw(st.lists(
        st.fixed_dictionaries({a: utility_st for a in spec.agents()}),
        min_size=1, max_size=2))
    direct = _direct_wire(spec.materialize(epoch), mechanism, profiles)

    async def go():
        client = ServiceClient(CostSharingService())
        status, payload = await client.run(spec, mechanism, profiles, epoch=epoch)
        repeat_status, repeat = await client.run(spec, mechanism, profiles,
                                                 epoch=epoch)
        await client.service.drain()
        return status, payload, repeat_status, repeat

    status, payload, repeat_status, repeat = asyncio.run(go())
    assert status == repeat_status == 200
    assert _canon(payload["results"]) == _canon(direct)
    assert _canon(repeat["results"]) == _canon(direct)
