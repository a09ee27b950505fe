"""Columnar, shard-level result store for sweep points.

* :class:`~repro.store.columnar.ColumnarStore` — one memory-mapped
  ``.npy`` shard (plus a ``.meta.json`` identity sidecar) per
  ``(device, calibration, N, model_version)`` identity
  (:func:`repro.sweep.keys.shard_digest`), holding the packed
  ``(BS, G, R)`` keys and the ``time_s`` / ``energy_j`` columns of
  every point of that sweep.  Lookups partition an entire request into
  hits and misses in one vectorized pass; float64 columns round-trip
  bit-exactly.
* an index manifest (``manifest.json``) describing every shard, kept
  advisory: shard filenames are derived from their content digest, so
  a missing or stale manifest degrades inspection tooling, never
  correctness.
* atomic temp-file + ``os.replace`` writes; corrupted or truncated
  shards warn (:class:`~repro.store.columnar.StoreIntegrityWarning`),
  read as misses and are recomputed.
"""

from repro.store.columnar import (
    SHARD_FORMAT,
    ColumnarStore,
    ShardKey,
    pack_config,
    pack_configs,
    shard_key,
    unpack_config,
)

__all__ = [
    "SHARD_FORMAT",
    "ColumnarStore",
    "ShardKey",
    "pack_config",
    "pack_configs",
    "shard_key",
    "unpack_config",
]
