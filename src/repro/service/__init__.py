"""repro.service — the concurrent cost-sharing serving layer.

The fourth architectural layer, above :mod:`repro.api` /
:mod:`repro.runner` / :mod:`repro.dynamic`: a stdlib-only asyncio
subsystem that serves pricing requests over long-lived warm state.

* :class:`SessionStore` — a bounded LRU of
  :class:`~repro.api.MulticastSession`s (and
  :class:`~repro.dynamic.DynamicSession`s for churn scenarios) keyed by
  the scenario's wire form (:mod:`repro.service.state`);
* :class:`MicroBatcher` — group commit per scenario: a request flushes
  at once unless its scenario's flush is running, and every request
  that arrived meanwhile rides that scenario's next flush on shared
  caches (:mod:`repro.service.batching`);
* :class:`CostSharingService` / :class:`ServiceClient` /
  :class:`ServiceServer` — the transport-agnostic dispatch core, the
  in-process client, and the asyncio HTTP/1.1 endpoint with bounded
  queues and 429 backpressure (:mod:`repro.service.server`);
* the wire protocol — request parsing and payload shapes shared by both
  transports (:mod:`repro.service.protocol`);
* :class:`HashRing` / :class:`FleetRouter` / :class:`Fleet` — horizontal
  sharding: a consistent-hash router that fans the same wire protocol
  out over N shared-nothing worker processes, with graceful drain and
  minimal-remap resize (:mod:`repro.service.ring`,
  :mod:`repro.service.fleet`).

``python -m repro serve`` runs the endpoint; ``python -m repro loadgen``
drives it closed-loop and reports latency percentiles.  Every response
is bit-identical to a direct cold :class:`~repro.api.MulticastSession`
run — the caches only skip recomputing pure functions.

The whole pipeline publishes into one
:class:`~repro.observability.MetricsRegistry` per service — stage
latency histograms, store and batch counters, HTTP status rates —
exposed as Prometheus text on ``GET /metrics`` and snapshotted under
the ``"metrics"`` key of ``GET /v1/stats``.
"""

from repro.service.batching import MicroBatcher
from repro.service.fleet import Fleet, FleetRouter, FleetWorker, WorkerClient, spawn_worker
from repro.service.protocol import (
    ProtocolError,
    RunRequest,
    parse_batch_request,
    parse_run_request,
    run_payload,
)
from repro.service.ring import DEFAULT_REPLICAS, HashRing, ring_hash
from repro.service.server import (
    BackgroundServer,
    CostSharingService,
    ServiceClient,
    ServiceServer,
    run_server,
)
from repro.service.state import SessionStore, scenario_key

__all__ = [
    "BackgroundServer",
    "CostSharingService",
    "DEFAULT_REPLICAS",
    "Fleet",
    "FleetRouter",
    "FleetWorker",
    "HashRing",
    "MicroBatcher",
    "ProtocolError",
    "RunRequest",
    "ServiceClient",
    "ServiceServer",
    "SessionStore",
    "WorkerClient",
    "parse_batch_request",
    "parse_run_request",
    "ring_hash",
    "run_payload",
    "run_server",
    "scenario_key",
    "spawn_worker",
]
