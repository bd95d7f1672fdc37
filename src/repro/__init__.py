"""repro — cost-sharing mechanisms for multicast in wireless networks.

A from-scratch reproduction of Bilò, Flammini, Melideo, Moscardelli &
Navarra, *Sharing the cost of multicast transmissions in wireless networks*
(SPAA 2004 / Theoretical Computer Science 369, 2006).

Layering (each layer only depends on the ones above it):

* :mod:`repro.graphs` / :mod:`repro.geometry` — pure algorithmic substrate;
* :mod:`repro.engine` — array graph backends, vectorised kernels and the
  batched mechanism pipeline (the substrate half sits beside
  :mod:`repro.graphs`; :mod:`repro.engine.batch` sits above
  :mod:`repro.mechanism`);
* :mod:`repro.wireless` — the paper's wireless power model + exact oracles;
* :mod:`repro.mechanism` — mechanism-design vocabulary and axiom auditors;
* :mod:`repro.core` — the paper's mechanisms;
* :mod:`repro.api` — the declarative scenario/mechanism spec API, the
  string-keyed mechanism registry, and the caching
  :class:`~repro.api.MulticastSession` facade (the service entry path);
* :mod:`repro.dynamic` — epoch-based agent churn over any scenario:
  :class:`~repro.dynamic.DynamicScenarioSpec` (deterministic
  join/leave/move histories) replayed incrementally by
  :class:`~repro.dynamic.DynamicSession` (the temporal entry path);
* :mod:`repro.traces` — multi-group trace workloads above
  :mod:`repro.dynamic`: the frozen JSONL trace format
  (:class:`~repro.traces.Trace`), the deterministic IGMP-like generator
  with RSSI handover moves, and
  :class:`~repro.traces.MultiGroupSession` replaying N concurrent
  groups over one shared substrate (network/closure/xi built once per
  distinct geometry, bit-identical to cold per-group replays);
* :mod:`repro.runner` — declarative sweep grids over scenario layout
  families x mechanisms (x churn epochs), the process-parallel executor,
  and the resumable JSONL result store (the fleet entry path);
* :mod:`repro.service` — the concurrent serving layer: a bounded LRU
  session store, a micro-batcher executing in-flight requests per
  scenario on shared caches (one flush, so one cold build, per key),
  and the asyncio HTTP/JSON endpoint with explicit 429 backpressure (the
  online entry path — ``python -m repro serve`` / ``loadgen``);
* :mod:`repro.observability` — the telemetry layer beside all of the
  above: a thread-safe stdlib metrics registry (counters/gauges/
  histograms in labeled families, Prometheus text exposition on
  ``GET /metrics``), structured JSON request logs, and request spans;
* :mod:`repro.analysis` — instances, experiments, tables.

The most common entry points are re-exported here; run
``python -m repro`` for the full experiment report, ``python -m repro
run --scenario spec.json --mechanism jv --profiles profiles.json`` to
price profiles over a JSON scenario spec, and ``python -m repro sweep
--spec sweep.json --workers 4 --out results.jsonl`` for whole grids;
``python -m repro dynamic --n 12 --epochs 4 --check`` replays churn.
"""

from repro.api import (
    MechanismSpec,
    MulticastSession,
    ScenarioSpec,
    available_mechanisms,
    make_mechanism,
    register_mechanism,
    result_from_dict,
    result_from_json,
    result_to_dict,
    result_to_json,
)
from repro.core import (
    EuclideanJVMechanism,
    EuclideanMCMechanism,
    EuclideanShapleyMechanism,
    NWSTMechanism,
    UniversalTreeMCMechanism,
    UniversalTreeShapleyMechanism,
    WirelessMulticastMechanism,
    WirelessNWSTMechanism,
)
from repro.dynamic import (
    ChurnSpec,
    DynamicScenarioSpec,
    DynamicSession,
    replay_dynamic,
)
from repro.engine import CSRGraph, DenseGraph
from repro.geometry import LAYOUT_FAMILIES, PointSet, layout_points, uniform_points
from repro.mechanism import MechanismResult
from repro.observability import MetricsRegistry, RequestLogger, default_registry
from repro.runner import ProfileSpec, SweepSpec, run_sweep
from repro.service import (
    CostSharingService,
    MicroBatcher,
    ServiceClient,
    ServiceServer,
    SessionStore,
)
from repro.traces import (
    MultiGroupScenarioSpec,
    MultiGroupSession,
    Trace,
    TraceScenarioSpec,
    generate_trace,
    replay_trace,
)
from repro.wireless import CostGraph, EuclideanCostGraph, PowerAssignment, UniversalTree

__version__ = "1.10.0"

__all__ = [
    "CSRGraph",
    "ChurnSpec",
    "CostGraph",
    "CostSharingService",
    "DenseGraph",
    "DynamicScenarioSpec",
    "DynamicSession",
    "EuclideanCostGraph",
    "MetricsRegistry",
    "RequestLogger",
    "EuclideanJVMechanism",
    "EuclideanMCMechanism",
    "EuclideanShapleyMechanism",
    "LAYOUT_FAMILIES",
    "MechanismResult",
    "MechanismSpec",
    "MicroBatcher",
    "MultiGroupScenarioSpec",
    "MultiGroupSession",
    "MulticastSession",
    "NWSTMechanism",
    "PointSet",
    "PowerAssignment",
    "ProfileSpec",
    "ScenarioSpec",
    "ServiceClient",
    "ServiceServer",
    "SessionStore",
    "SweepSpec",
    "Trace",
    "TraceScenarioSpec",
    "UniversalTree",
    "UniversalTreeMCMechanism",
    "UniversalTreeShapleyMechanism",
    "WirelessMulticastMechanism",
    "WirelessNWSTMechanism",
    "available_mechanisms",
    "default_registry",
    "generate_trace",
    "layout_points",
    "make_mechanism",
    "register_mechanism",
    "result_from_dict",
    "result_from_json",
    "result_to_dict",
    "replay_dynamic",
    "replay_trace",
    "result_to_json",
    "run_sweep",
    "uniform_points",
    "__version__",
]
