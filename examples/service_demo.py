"""The serving layer end-to-end, in process: store -> batch -> verify.

The whole `repro.service` loop without opening a socket:

1. stand up a CostSharingService (LRU session store, micro-batcher,
   admission control) and drive it through the in-process ServiceClient
   — the exact dispatch the HTTP endpoint calls;
2. fire a burst of concurrent requests over a handful of scenarios and
   mechanisms, letting same-scenario requests share flushes and warm
   sessions;
3. verify every response is bit-identical to a direct cold
   MulticastSession run (the serving machinery may only change speed);
4. show the observability surface: store hits/misses/evictions,
   batcher flushes, per-status HTTP counters, and the
   Prometheus-style metrics snapshot the registry accumulated
   (per-stage latency means, flush occupancy) — the same families
   ``GET /metrics`` serves over the wire.

Run with ``PYTHONPATH=src python examples/service_demo.py``.
"""

import asyncio
import json

import numpy as np

from repro.analysis.tables import format_table
from repro.api import MulticastSession, ScenarioSpec, result_to_dict
from repro.observability import parse_exposition, sample_total
from repro.service import CostSharingService, ServiceClient

MECHANISMS = ["tree-shapley", "tree-mc", "jv"]


def build_workload() -> list[tuple[ScenarioSpec, str, list[dict]]]:
    rng = np.random.default_rng(42)
    scenarios = [
        ScenarioSpec.from_random(n=12, alpha=2.0, seed=seed, side=6.0, layout=layout)
        for layout, seed in [("uniform", 0), ("cluster", 1), ("ring", 2)]
    ]
    workload = []
    for index in range(18):
        scenario = scenarios[index % len(scenarios)]
        mechanism = MECHANISMS[(index // len(scenarios)) % len(MECHANISMS)]
        profiles = [
            {a: float(rng.uniform(0.0, 12.0)) for a in scenario.agents()} for _ in range(2)
        ]
        workload.append((scenario, mechanism, profiles))
    return workload


async def drive(workload) -> tuple[list[dict], dict]:
    service = CostSharingService(cache_size=8)
    client = ServiceClient(service)

    health_status, health = await client.healthz()
    assert health_status == 200, health
    print(f"service up: {health}")

    # One concurrent burst: requests for the same scenario submitted
    # together ride one flush; repeated scenarios hit the warm LRU.
    responses = await asyncio.gather(
        *(client.run(scenario, mechanism, profiles) for scenario, mechanism, profiles in workload)
    )
    for status, payload in responses:
        assert status == 200, payload

    _, stats = await client.stats()
    _, metrics_text = await client.metrics()
    await service.drain()
    return [payload for _, payload in responses], stats, metrics_text


def main() -> None:
    workload = build_workload()
    payloads, stats, metrics_text = asyncio.run(drive(workload))

    # The serving contract: bit-identical to direct cold construction.
    mismatches = 0
    rows = []
    for (scenario, mechanism, profiles), payload in zip(workload, payloads):
        direct = [result_to_dict(r) for r in MulticastSession(scenario).run_batch(mechanism, profiles)]
        identical = json.dumps(payload["results"], sort_keys=True) == json.dumps(
            direct, sort_keys=True
        )
        mismatches += 0 if identical else 1
        rows.append(
            {
                "layout": scenario.layout,
                "mechanism": mechanism,
                "receivers": payload["summary"]["mean_receivers"],
                "charged": round(payload["summary"]["mean_charged"], 3),
                "bb": payload["summary"]["mean_bb"],
                "identical": identical,
            }
        )
    print(format_table(rows, title="service responses vs direct cold sessions"))
    assert mismatches == 0, f"{mismatches} responses diverged from direct runs"

    store, batcher = stats["store"], stats["batcher"]
    print(
        f"store: {store['hits']} hits, {store['misses']} misses, "
        f"{store['evictions']} evictions "
        f"(capacity {store['capacity']})"
    )
    print(
        f"batcher: {batcher['requests']} requests in {batcher['batches']} "
        f"flushes, largest batch {batcher['max_batch_size']}"
    )
    print(f"http: {stats['http']['responses']}")
    assert batcher["max_batch_size"] >= 2, "burst should have shared a flush"

    # The metrics snapshot — the same exposition `GET /metrics` serves.
    parsed = parse_exposition(metrics_text)
    stage_means = []
    for stage in ("parse", "queue", "build", "execute", "serialize"):
        count = sample_total(parsed, "repro_stage_seconds_count", {"stage": stage})
        total = sample_total(parsed, "repro_stage_seconds_sum", {"stage": stage})
        stage_means.append(f"{stage} {total / count * 1e3:.2f}ms" if count else f"{stage} -")
    flushes = sample_total(parsed, "repro_batch_occupancy_count")
    solo = sample_total(parsed, "repro_batch_occupancy_bucket", {"le": "1"})
    print(f"metrics: {len(parsed['types'])} families; stage means " + " | ".join(stage_means))
    print(
        f"metrics: {int(flushes - solo)}/{int(flushes)} flushes held more than "
        f"one request; xi cache hits "
        f"{int(sample_total(parsed, 'repro_xi_cache_total', {'result': 'hit'}))}"
    )
    assert "metrics" in stats, "stats payload should embed the registry snapshot"
    print("every response bit-identical to direct construction — serving adds speed, not drift")


if __name__ == "__main__":
    main()
