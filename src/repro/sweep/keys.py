"""Stable content-addressed identities for sweep shards.

A sweep point is fully determined by the device specification, the
calibration constants, the matrix size, the ``(BS, G, R)``
configuration, and the simulator version.  :func:`shard_digest` hashes
a canonical JSON encoding of all of those inputs except the
configuration, so

* every point of one device/size/calibration shares one store shard,
* any change to a spec constant, a calibration constant (including the
  sensitivity study's perturbed calibrations) or the model version
  produces a different digest — a stale shard can never be returned
  for a changed model.

JSON float encoding uses ``repr`` (shortest round-trip), so the digest
is stable across processes and Python sessions on the same platform.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

from repro.machines.specs import GPUSpec
from repro.simgpu.calibration import GPUCalibration

__all__ = ["MODEL_VERSION", "SHARD_BACKEND", "canonical_json", "shard_digest"]

#: Version of the GPU simulator's *code* (the constants are hashed
#: directly).  Bump whenever `repro.simgpu` changes the mapping from
#: (spec, calibration, N, BS, G, R) to (time, energy); the golden
#: regression tests fail loudly if a change lands without a bump.
MODEL_VERSION = "gpu-matmul/1"

#: The evaluator every stored point comes from (the vectorized batch
#: model).  It is part of each shard's digest payload, file name and
#: sidecar; changing it would move every existing store to new
#: addresses and make it cold.
SHARD_BACKEND = "vectorized"


def canonical_json(value: Any) -> str:
    """Deterministic JSON encoding: sorted keys, no whitespace."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def shard_digest(spec: GPUSpec, cal: GPUCalibration, n: int) -> str:
    """SHA-256 identity of one ``(device, calibration, N)`` shard.

    Every sweep point of one device/size/calibration combination shares
    one digest, which is how the columnar store (:mod:`repro.store`)
    groups points into shards.
    """
    payload = {
        "model_version": MODEL_VERSION,
        "spec": dataclasses.asdict(spec),
        "calibration": dataclasses.asdict(cal),
        "n": int(n),
        "backend": SHARD_BACKEND,
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()
