"""Mechanism outputs do not depend on the process's string-hash seed.

The paper defines a mechanism as a public algorithm of the reported
utilities, so two processes must price a profile identically.  The MEMT
reduction's nodes are string-tagged tuples (``("in", i)``, ``("out", i,
m)``, ``("meta", k)``) whose set order changes with ``PYTHONHASHSEED``;
every iteration that reaches an output must therefore run in a canonical
order.  Each seed gets its own interpreter, since the hash seed is fixed
at start-up.
"""

import os
import subprocess
import sys

import repro

PRICE = """
import json
from repro.api import MulticastSession, ScenarioSpec, result_to_dict

rows = []
for seed in range(4):
    spec = ScenarioSpec.from_random(n=8, dim=2, alpha=2.0, seed=seed, side=10.0)
    profile = {a: 30 + (7 * a) % 11 for a in spec.agents()}
    session = MulticastSession(spec)
    rows += [result_to_dict(session.run(name, profile))
             for name in ("wireless", "nwst")]
print(json.dumps(rows, sort_keys=True))
"""


def test_wireless_and_nwst_prices_are_the_same_under_every_hash_seed():
    src = os.path.dirname(os.path.dirname(repro.__file__))
    path = os.pathsep.join([src, *filter(None, [os.environ.get("PYTHONPATH")])])
    procs = [subprocess.Popen(
        [sys.executable, "-c", PRICE], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
        env={**os.environ, "PYTHONHASHSEED": str(hash_seed), "PYTHONPATH": path})
        for hash_seed in range(4)]
    payloads = []
    for proc in procs:
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        payloads.append(out)
    assert payloads[0].startswith("[{")
    assert payloads[1:] == payloads[:1] * 3
