"""The sharded fleet end-to-end: router, workers, skew, drain.

The horizontal story of `repro.service.fleet` in one script:

1. boot a 3-worker fleet — each worker is the full single-process
   service (`python -m repro serve`) in its own OS process with its own
   LRU session store and metrics registry — behind a consistent-hash
   router that speaks the identical wire protocol;
2. drive it with the deterministic Zipf-skewed keyed workload
   (`loadgen --keys/--zipf`): distinct scenario keys spread over shards
   by the hash ring, the popular head keys stay warm in their owners'
   LRUs, and the `X-Repro-Shard` response header attributes every
   request;
3. print the per-shard picture: request counts, client-side p95, and
   each shard's server-side hit rate from the aggregated `/v1/stats`;
4. resize live: add a fourth shard over `POST /v1/fleet/add` (only the
   ring ranges adjacent to its virtual nodes move), then gracefully
   drain one over `POST /v1/fleet/drain` — in-flight requests finish,
   new ones reroute, nothing fails.

Run with ``PYTHONPATH=src python examples/fleet_demo.py``.
"""

import json
import urllib.request

from repro.service import BackgroundServer, Fleet
from repro.service.loadgen import run_loadgen


def admin(port: int, method: str, path: str, payload: dict | None = None) -> dict:
    data = None if payload is None else json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}", data=data, method=method,
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.loads(response.read())


def burst(port: int, requests: int = 60):
    return run_loadgen(
        host="127.0.0.1", port=port, requests=requests, concurrency=6,
        n=14, alpha=2.0, side=10.0, seeds=[0], layouts=["uniform"],
        mechanisms=["tree-shapley", "jv"], profile_count=2,
        keys=10, zipf=1.1)


def main() -> None:
    print("== booting a 3-worker fleet (w0, w1, w2) ==")
    fleet = Fleet(workers=3, cache_size=16)
    router = fleet.start()
    server = BackgroundServer(router)
    port = server.start()
    try:
        topology = admin(port, "GET", "/v1/fleet")
        print(f"router on :{port}, ring: {topology['ring']['shards']} "
              f"({topology['ring']['points']} virtual nodes)")

        print("\n== Zipf-skewed burst: 60 requests over 10 keys ==")
        report = burst(port)
        assert report.statuses == {200: 60}, report.statuses
        for line in report.lines():
            print(line)
        failures = report.check(expect_shards=3)
        assert not failures, failures
        print("check ok: 3 shards answered, every shard served warm lookups")

        print("\n== resize up: POST /v1/fleet/add ==")
        print(admin(port, "POST", "/v1/fleet/add"))

        print("\n== graceful drain: POST /v1/fleet/drain w1 ==")
        print(admin(port, "POST", "/v1/fleet/drain", {"shard": "w1"}))
        report = burst(port)
        assert report.statuses == {200: 60}, report.statuses
        print("post-drain burst: all 200, shards "
              f"{list(report.observed_shards())}")
    finally:
        server.stop()
        fleet.shutdown()
    print("\nfleet demo done.")


if __name__ == "__main__":
    main()
