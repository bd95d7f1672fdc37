"""Serving never imports scipy.

scipy solves only the core LPs behind the paper's empty-core results
(EXP-F2, EXP-T5), and it is most of an ``import repro``: half of a
serving process's start-up time and memory.  So no code a request runs
may load it.  Each check gets its own interpreter, since ``sys.modules``
is per process: one with scipy blocked (any import of it raises), one
with scipy importable, where it must still stay unloaded.
"""

import json
import os
import subprocess
import sys

import pytest

import repro

SERVE = """
import asyncio, json, sys
if BLOCK:
    sys.modules["scipy"] = None  # every `import scipy...` now raises
import repro.__main__
from repro.api import ScenarioSpec, available_mechanisms
from repro.service import CostSharingService
from repro.service.loadgen import build_trace_requests
from repro.traces import generate_trace


async def serve():
    service = CostSharingService()
    bodies = {}
    for name in available_mechanisms():
        # The Euclidean mechanisms answer 400 for alpha > 1 by design.
        alpha = 1.0 if name.startswith("euclid-") else 2.0
        spec = ScenarioSpec.from_random(n=6, alpha=alpha, seed=3, side=5.0)
        bodies[name] = {"scenario": spec.to_dict(), "mechanism": name,
                        "profiles": [{str(a): 4.0 for a in spec.agents()}]}
    trace = generate_trace(n=7, groups=2, epochs=2, seed=0, handover_rate=0.3)
    for index, body in enumerate(build_trace_requests(
            trace, mechanisms=["tree-shapley", "jv"], profile_count=2)):
        bodies[f"trace-{index}"] = body
    statuses = {}
    for label, body in bodies.items():
        status, _, _ = await service.dispatch(
            "POST", "/v1/run", json.dumps(body).encode())
        statuses[label] = status
    await service.drain()
    return statuses


statuses = asyncio.run(serve())
loaded = sorted(name for name, module in sys.modules.items()
                if name.split(".")[0] == "scipy" and module is not None)
print(json.dumps({"statuses": statuses, "scipy": loaded}))
"""


@pytest.mark.parametrize("block", [True, False], ids=["blocked", "importable"])
def test_serving_never_imports_scipy(block):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    proc = subprocess.run(
        [sys.executable, "-c", f"BLOCK = {block}\n" + SERVE],
        capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    statuses = report["statuses"]
    assert set(repro.api.available_mechanisms()) <= set(statuses)
    assert sum(label.startswith("trace-") for label in statuses) == 4
    assert statuses == {label: 200 for label in statuses}
    assert report["scipy"] == []
