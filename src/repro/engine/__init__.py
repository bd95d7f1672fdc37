"""repro.engine — vectorised array backends and the batched pipeline.

The engine has two halves:

* **substrate** (no dependencies on the higher layers):
  :mod:`repro.engine.dense` — :class:`DenseGraph` / :class:`CSRGraph`
  integer-labelled array graphs with masked-min Dijkstra, Prim MST,
  metric closures and the lockstep :func:`batched_dijkstra` kernel;
  :mod:`repro.engine.backend` — the :class:`GraphBackend` protocol both
  the adjacency-map containers and the array graphs satisfy, plus
  coercions; :mod:`repro.engine.trees` / :mod:`repro.engine.moats` —
  flat-array kernels for the universal-tree mechanisms, the
  Jain-Vazirani moat shares and the closure MST they share with the KMB
  served tree (:func:`closure_mst`).

* **pipeline** (:mod:`repro.engine.batch`, imported lazily because it
  sits *above* :mod:`repro.mechanism`): the ``xi(R)`` memo and the
  lockstep Moulin-Shenker driver behind
  :meth:`repro.api.MulticastSession.run_batch`, plus the sweep helpers.

Algorithm entry points in :mod:`repro.graphs` dispatch to the array
kernels automatically when handed an array graph; ``CostGraph.as_dense()``
is the one-call opt-in for the paper's complete wireless cost graphs.
"""

from repro.engine.backend import (
    GraphBackend,
    as_array_backend,
    is_array_backend,
    out_neighbors,
)
from repro.engine.dense import ArrayGraph, CSRGraph, DenseGraph, batched_dijkstra
from repro.engine.moats import closure_mst, moat_mst_weight, moat_shares
from repro.engine.trees import TreeIndex, efficient_set, water_filling_shares

__all__ = [
    "ArrayGraph",
    "CSRGraph",
    "DenseGraph",
    "GraphBackend",
    "MethodCache",
    "TreeIndex",
    "as_array_backend",
    "batched_dijkstra",
    "closure_mst",
    "efficient_set",
    "is_array_backend",
    "moat_mst_weight",
    "moat_shares",
    "out_neighbors",
    "sweep_instances",
    "water_filling_shares",
]

_BATCH_NAMES = {"MethodCache", "sweep_instances"}


def __getattr__(name: str):
    # repro.engine.batch imports repro.mechanism (it drives
    # Moulin-Shenker), whose modules import the graph layer built on the
    # engine substrate — loading batch lazily keeps that layering
    # cycle-free.
    if name in _BATCH_NAMES:
        from repro.engine import batch

        return getattr(batch, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
