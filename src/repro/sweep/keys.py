"""Stable identities for sweep points and shards.

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

Within a shard, a point is addressed by its packed configuration key
``BS<<42 | G<<21 | R`` (:func:`pack_keys`); the planner and the store
both sort, search and merge these keys, and this module alone knows
the layout.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any

import numpy as np

from repro.machines.specs import GPUSpec
from repro.simgpu.calibration import GPUCalibration

__all__ = [
    "MODEL_VERSION",
    "FIELD_MAX",
    "SHARD_BACKEND",
    "canonical_json",
    "pack_configs",
    "pack_keys",
    "shard_digest",
    "unique_keys",
    "unpack_keys",
]

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

#: Bits per packed (BS, G, R) field.  2^21 comfortably covers every
#: admissible value (BS ≤ 32, G ≤ 8, R ≤ total_products) while keeping
#: the packed key inside exact int64 range.
_FIELD_BITS = 21
FIELD_MAX = (1 << _FIELD_BITS) - 1


def pack_keys(bs: np.ndarray, g: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Pack int64 ``(BS, G, R)`` columns into sortable int64 keys.

    Keys order like ``(bs, g, r)`` tuples.  Raises ``ValueError`` if a
    field lies outside ``1..2**21 - 1``, where it would overflow into
    its neighbour.
    """
    if len(bs) and not (
        0 < bs.min() and bs.max() <= FIELD_MAX
        and 0 < g.min() and g.max() <= FIELD_MAX
        and 0 < r.min() and r.max() <= FIELD_MAX
    ):
        raise ValueError(f"configuration outside the packable range 1..{FIELD_MAX}")
    return (bs << (2 * _FIELD_BITS)) | (g << _FIELD_BITS) | r


def pack_configs(configs) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`pack_keys` over a config sequence.

    ``configs`` is any sequence of objects with ``bs``/``g``/``r``
    attributes; returns ``(packed, bs, g, r)`` int64 arrays aligned
    with the input order.
    """
    count = len(configs)
    bs = np.fromiter((c.bs for c in configs), dtype=np.int64, count=count)
    g = np.fromiter((c.g for c in configs), dtype=np.int64, count=count)
    r = np.fromiter((c.r for c in configs), dtype=np.int64, count=count)
    return pack_keys(bs, g, r), bs, g, r


def unpack_keys(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Invert :func:`pack_keys`; returns the ``(bs, g, r)`` columns."""
    return (
        packed >> (2 * _FIELD_BITS),
        (packed >> _FIELD_BITS) & FIELD_MAX,
        packed & FIELD_MAX,
    )


def unique_keys(packed: np.ndarray) -> np.ndarray:
    """Sorted unique keys of ``packed``.

    Same result as ``np.unique(packed)``, whose first call (like
    ``np.union1d``'s) imports ``numpy.ma``: about 12 ms of a
    command's run on a 2-CPU host.
    """
    keys = np.sort(packed)
    if len(keys) > 1:
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    return keys


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
    # Imported here, its one use: set-up and a store-less `repro all`
    # never load hashlib (about 6 ms with OpenSSL's `_hashlib`).
    import hashlib

    payload = {
        "model_version": MODEL_VERSION,
        "spec": dataclasses.asdict(spec),
        "calibration": dataclasses.asdict(cal),
        "n": int(n),
        "backend": SHARD_BACKEND,
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()
