"""Sweep requests, the session planner and the backend benchmark.

The paper's results (Figs. 2, 7, 8 and the headline statistics) all
derive from exhaustive sweeps of the ``(BS, G, R)`` configuration
space per matrix size and device.  This package provides the one
evaluation path every sweep-driven experiment runs on:

* :class:`~repro.sweep.plan.SweepRequest` — a declarative description
  of one ``(device, N)`` sweep, resolvable to its configuration list.
* :class:`~repro.sweep.planner.EvalPlanner` — collects every request a
  session of experiments will make, deduplicates, partitions against
  the columnar store (:class:`repro.store.ColumnarStore`) in one
  vectorized pass, and fills the misses through :mod:`repro.simgpu.
  batch` mega-batches.  It is the ``engine=`` of every sweep-driven
  experiment and CLI command (``repro all``, ``repro experiment``,
  ``repro sweep``); ``engine=None`` runs the scalar model of record,
  :meth:`repro.simgpu.device.GPUDevice.run_matmul`, instead.
* :mod:`repro.sweep.keys` — the content address of one
  ``(device, calibration, N, model version)`` shard of the store
  (:func:`~repro.sweep.keys.shard_digest`), and the packed
  ``(BS, G, R)`` int64 key that the planner and the store sort,
  search and merge (:func:`~repro.sweep.keys.pack_configs`).
* :func:`~repro.sweep.bench.run_benchmark` — times the scalar model,
  the vectorized batch model and the planner session against each
  other and returns the ``BENCH_sweep.json`` document as a plain dict
  (``repro bench``).
"""

from repro.sweep.bench import run_benchmark
from repro.sweep.keys import MODEL_VERSION, canonical_json, shard_digest
from repro.sweep.plan import SweepRequest, resolve_device
from repro.sweep.planner import (
    EvalPlanner,
    PlannerStats,
    collect_session_requests,
)

__all__ = [
    "EvalPlanner",
    "MODEL_VERSION",
    "PlannerStats",
    "SweepRequest",
    "canonical_json",
    "collect_session_requests",
    "resolve_device",
    "run_benchmark",
    "shard_digest",
]
