"""Columnar, shard-level result store for sweep points.

* :class:`~repro.store.columnar.ColumnarStore` — one ``.npy`` shard
  (plus a ``.meta.json`` identity sidecar) per
  ``(device, calibration, N, model_version)`` identity
  (:func:`repro.sweep.keys.shard_digest`), holding the packed
  ``(BS, G, R)`` keys and the ``time_s`` / ``energy_j`` columns of
  every point of that sweep.  A shard is read whole and checked once,
  when it is loaded; lookups then partition an entire request into
  hits and misses in one vectorized pass, and float64 columns
  round-trip bit-exactly.
* atomic temp-file + ``os.replace`` writes; corrupt shards
  (truncated, or holding non-finite or negative objectives) and stale
  ones (sound, but at another identity's address) warn
  (:class:`~repro.store.columnar.StoreIntegrityWarning`), read as
  misses and are recomputed.
"""

from repro.store.columnar import (
    SHARD_FORMAT,
    ColumnarStore,
    ShardKey,
    shard_key,
)

__all__ = [
    "SHARD_FORMAT",
    "ColumnarStore",
    "ShardKey",
    "shard_key",
]
