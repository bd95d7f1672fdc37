"""Multi-group traces through the serving path: ``/v1/run`` with
``(group, epoch)`` must answer bit-identically to a direct
:class:`~repro.traces.session.MultiGroupSession`, one store entry hosts
every group of a scenario, and the fleet router spreads groups over
shards by the group-extended route key."""

from __future__ import annotations

import asyncio
import json

from repro.api import result_to_dict
from repro.service import CostSharingService, ServiceClient
from repro.service.fleet import scenario_route_key
from repro.service.ring import HashRing
from repro.traces import MultiGroupSession, generate_trace

TRACE = generate_trace(n=7, groups=2, epochs=3, seed=0, handover_rate=0.3)
SPEC = TRACE.to_spec()
PROFILES = [{str(a): float(a % 3 + 1) for a in SPEC.agents()}]
INT_PROFILES = [{int(a): v for a, v in p.items()} for p in PROFILES]


def canon(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def direct_wire(group: str, epoch: int, mechanism: str) -> list[dict]:
    session = MultiGroupSession(SPEC)
    return [result_to_dict(r)
            for r in session.run_epoch(group, epoch, mechanism, INT_PROFILES)]


def test_run_endpoint_matches_direct_session_for_every_cell():
    async def go():
        client = ServiceClient(CostSharingService())
        out = {}
        for epoch in range(SPEC.n_epochs):
            for group in SPEC.group_ids:
                status, payload = await client.run(
                    SPEC, "tree-shapley", PROFILES, epoch=epoch, group=group)
                out[(group, epoch)] = (status, payload)
        return out, client.service

    out, service = asyncio.run(go())
    for (group, epoch), (status, payload) in out.items():
        assert status == 200
        assert payload["group"] == group and payload["epoch"] == epoch
        assert canon(payload["results"]) == canon(
            direct_wire(group, epoch, "tree-shapley"))
    # Every group of the scenario lives in ONE store entry (the groups
    # share a substrate cache there) — not one entry per group.
    assert service.store.stats()["size"] == 1


def test_batch_endpoint_mixes_groups_and_epochs():
    requests = [
        {"scenario": SPEC.to_dict(), "mechanism": "jv",
         "profiles": PROFILES, "epoch": epoch, "group": group}
        for group in SPEC.group_ids for epoch in (0, 1)]

    async def go():
        client = ServiceClient(CostSharingService())
        status, payload = await client.request(
            "POST", "/v1/batch", {"requests": requests})
        await client.service.drain()
        return status, payload

    status, payload = asyncio.run(go())
    assert status == 200
    assert payload["count"] == len(requests)
    for request, response in zip(requests, payload["responses"]):
        assert response["status"] == 200
        body = response["body"]
        assert body["group"] == request["group"]
        assert body["epoch"] == request["epoch"]
        assert canon(body["results"]) == canon(
            direct_wire(request["group"], request["epoch"], "jv"))


def test_repeat_requests_hit_the_warm_store_entry():
    async def go():
        client = ServiceClient(CostSharingService())
        first = await client.run(SPEC, "jv", PROFILES, epoch=1, group="g0")
        second = await client.run(SPEC, "jv", PROFILES, epoch=1, group="g0")
        other = await client.run(SPEC, "jv", PROFILES, epoch=1, group="g1")
        return first, second, other, client.service.store.stats()

    first, second, other, stats = asyncio.run(go())
    assert first[0] == second[0] == other[0] == 200
    assert canon(first[1]) == canon(second[1])
    assert first[1]["group"] == "g0" and other[1]["group"] == "g1"
    assert stats["hits"] >= 2  # the second and the g1 run reuse the entry


def test_missing_group_is_a_400_not_a_500():
    async def go():
        client = ServiceClient(CostSharingService())
        no_group = await client.run(SPEC, "jv", PROFILES, epoch=0)
        bad_group = await client.run(SPEC, "jv", PROFILES, epoch=0,
                                     group="g9")
        return no_group, bad_group

    no_group, bad_group = asyncio.run(go())
    assert no_group[0] == 400 and "group" in no_group[1]["error"]
    assert bad_group[0] == 400 and "g9" in bad_group[1]["error"]


def test_groups_spread_across_fleet_shards():
    # With enough groups, the group-extended route key must not pin the
    # whole trace to one shard — that is the point of extending the key.
    trace = generate_trace(n=6, groups=8, epochs=1, seed=1)
    spec = trace.to_spec()
    ring = HashRing(["w0", "w1", "w2"])
    shards = set()
    for group in spec.group_ids:
        body = json.dumps({"scenario": spec.to_dict(), "mechanism": "jv",
                           "profiles": PROFILES, "group": group,
                           "epoch": 0}).encode("utf-8")
        shards.add(ring.route(scenario_route_key(body)))
    assert len(shards) >= 2
