"""Columnar shard store keyed by sweep-point identity.

Layout: one shard per :func:`repro.sweep.keys.shard_digest` identity —
device spec, calibration, matrix size and model version — under the
store root::

    <root>/<device>-n<N>-vectorized-<digest16>.npy
    <root>/<device>-n<N>-vectorized-<digest16>.meta.json

A shard holds the full column set of one sweep's points — the packed
``(BS, G, R)`` configuration keys (sorted, unique), the unpacked key
columns and the ``time_s`` / ``energy_j`` objective columns — stored
as one ``(6, n)`` int64 block (format ``repro-sweep-store/2``).  The
float64 objective columns live bit-for-bit in int64 lanes so the whole
shard is a single homogeneous ``.npy``; :class:`_Shard` reinterprets
them with a view.  A shard is read whole and checked once, at load:
the largest one any command writes holds 164 points (8 KB), too small
for a partial or deferred read to pay.

The identity/row-count metadata lives in a JSON sidecar.  A shard
whose sidecar is missing, unreadable, or disagrees with the array's
row count is treated as a torn pair and recomputed.  An untrusted
shard is either *corrupt* (structurally broken) or *stale* (sound,
but its sidecar identity disagrees with its address, whatever device
it names); both warn and recompute.

Durability contract: every write goes through a temp file +
``os.replace``, so an interrupted run never leaves a half-written
shard under its final name; a corrupted or truncated shard, or one
holding non-finite or negative objectives, is treated as empty and
recomputed, and the next append overwrites it.  Appends re-read the
shard from disk before merging, so two concurrent writers converge on
the union of their rows except for a benign last-write-wins race
window (the loser's rows read as misses and are recomputed — values
are deterministic, so nothing can diverge).
"""

from __future__ import annotations

import json
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro import obs
from repro.machines.specs import GPUSpec
from repro.simgpu.calibration import GPUCalibration
from repro.sweep.keys import MODEL_VERSION, SHARD_BACKEND, pack_keys, shard_digest

__all__ = [
    "SHARD_FORMAT",
    "ShardKey",
    "ColumnarStore",
    "StoreIntegrityWarning",
    "shard_key",
]


class StoreIntegrityWarning(UserWarning):
    """A shard could not be trusted and its points will be recomputed.

    Emitted (once per shard load) when a shard file is corrupt,
    truncated, holds a non-finite or negative objective value, or is
    stale at its address.  Correctness is unaffected — the shard reads
    as empty and the points are recomputed — but silent recomputes
    hide lost cache capacity, so the event is surfaced here and
    counted under ``store.shard.recompute_fallbacks``.
    """

SHARD_FORMAT = "repro-sweep-store/2"

#: Row indices of the (6, n) shard block.
_COL_PACKED, _COL_BS, _COL_G, _COL_R, _COL_TIME, _COL_ENERGY = range(6)


def _slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-") or "device"


@dataclass(frozen=True)
class ShardKey:
    """Identity of one shard: ``(device, n, model_version)``.

    ``digest`` is :func:`repro.sweep.keys.shard_digest` over the full
    spec + calibration payload, so two calibrations of the same device
    (e.g. the sensitivity study's perturbations) live in distinct
    shards even though their nominal key fields match.
    """

    device: str
    n: int
    model_version: str
    digest: str

    @property
    def stem(self) -> str:
        return (
            f"{_slug(self.device)}-n{self.n}-{SHARD_BACKEND}-"
            f"{self.digest[:16]}"
        )

    @property
    def filename(self) -> str:
        return f"{self.stem}.npy"

    @property
    def meta_filename(self) -> str:
        return f"{self.stem}.meta.json"


def shard_key(spec: GPUSpec, cal: GPUCalibration, n: int) -> ShardKey:
    """The :class:`ShardKey` of one device/size/calibration."""
    return ShardKey(
        device=spec.name,
        n=int(n),
        model_version=MODEL_VERSION,
        digest=shard_digest(spec, cal, n),
    )


@dataclass
class _Shard:
    """One loaded shard: a ``(6, n)`` int64 block.

    Rows are sorted unique by packed key.  The two objective columns
    are float64 values stored bit-for-bit in int64 lanes so the whole
    shard is one homogeneous array; :attr:`time_s` / :attr:`energy_j`
    reinterpret them with a view.
    """

    block: np.ndarray

    @property
    def packed(self) -> np.ndarray:
        return self.block[_COL_PACKED]

    @property
    def bs(self) -> np.ndarray:
        return self.block[_COL_BS]

    @property
    def g(self) -> np.ndarray:
        return self.block[_COL_G]

    @property
    def r(self) -> np.ndarray:
        return self.block[_COL_R]

    @property
    def time_s(self) -> np.ndarray:
        return self.block[_COL_TIME].view(np.float64)

    @property
    def energy_j(self) -> np.ndarray:
        return self.block[_COL_ENERGY].view(np.float64)

    def __len__(self) -> int:
        return int(self.block.shape[1])


def _make_block(
    packed: np.ndarray,
    bs: np.ndarray,
    g: np.ndarray,
    r: np.ndarray,
    time_s: np.ndarray,
    energy_j: np.ndarray,
) -> np.ndarray:
    """Assemble column arrays into one ``(6, n)`` int64 block."""
    block = np.empty((6, len(packed)), dtype=np.int64)
    block[_COL_PACKED] = packed
    block[_COL_BS] = bs
    block[_COL_G] = g
    block[_COL_R] = r
    block[_COL_TIME] = np.ascontiguousarray(time_s, dtype=np.float64).view(
        np.int64
    )
    block[_COL_ENERGY] = np.ascontiguousarray(energy_j, dtype=np.float64).view(
        np.int64
    )
    return block


_EMPTY = _Shard(block=np.empty((6, 0), dtype=np.int64))

#: Exceptions a torn/foreign/garbage shard file can raise on load.
_LOAD_ERRORS = (OSError, ValueError, KeyError, EOFError)


class ColumnarStore:
    """Shard-level columnar store of sweep points under one directory."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root).expanduser()
        #: Corrupt shard files observed by loads.
        self.corrupt_shards = 0
        #: Structurally sound shards rejected for identity/version
        #: mismatch at their address (e.g. a stale model version).
        self.stale_shards = 0
        self._shards: dict[str, _Shard] = {}

    def _recompute_fallback(self, path: Path, reason: str) -> None:
        """Surface one untrusted-shard event (warning + obs counters).

        ``reason`` is ``"corrupt"`` (unreadable/torn/inconsistent
        columns) or ``"stale"`` (readable but the identity metadata
        does not match the address).
        """
        if reason == "stale":
            self.stale_shards += 1
        else:
            self.corrupt_shards += 1
        obs.count(f"store.shard.{reason}")
        obs.count("store.shard.recompute_fallbacks")
        warnings.warn(
            f"sweep store: {reason} shard {path.name} ignored; its "
            f"points will be recomputed and the shard rewritten on the "
            f"next append",
            StoreIntegrityWarning,
            stacklevel=3,
        )

    # -- paths --------------------------------------------------------------

    def shard_path(self, key: ShardKey) -> Path:
        return self.root / key.filename

    def meta_path(self, key: ShardKey) -> Path:
        return self.root / key.meta_filename

    # -- loading ------------------------------------------------------------

    def _read_shard(self, key: ShardKey) -> _Shard:
        """Load and check a whole shard; a corrupt or absent file is empty."""
        path = self.shard_path(key)
        try:
            meta = json.loads(self.meta_path(key).read_text())
            block = np.load(path, allow_pickle=False)
        except FileNotFoundError:
            # A block without its sidecar (or vice versa) is a torn
            # pair — unless neither exists, which is just a cold shard.
            if path.is_file() or self.meta_path(key).is_file():
                self._recompute_fallback(path, "corrupt")
            return _EMPTY
        except _LOAD_ERRORS + (json.JSONDecodeError,):
            self._recompute_fallback(path, "corrupt")
            return _EMPTY
        shard = _Shard(block=block)
        reason = self._shard_rejection(key, meta, shard)
        if reason is not None:
            self._recompute_fallback(path, reason)
            return _EMPTY
        return shard

    @staticmethod
    def _shard_rejection(
        key: ShardKey, meta: dict[str, Any], shard: _Shard
    ) -> str | None:
        """Why a shard cannot be trusted at this address (None = sound).

        ``"stale"`` — the file is readable and well-formed but its
        identity metadata does not match the address (renamed/copied
        file, or a shard written by a different model version: its
        digest differs, so stale results never leak), whatever device
        the sidecar names.  ``"corrupt"`` — anything
        structurally broken: wrong format tag, wrong block shape, a
        sidecar row count disagreeing with the array (torn pair),
        unsorted keys, or an objective value that is not a finite,
        non-negative number.
        """
        if not isinstance(meta, dict):
            return "corrupt"
        if meta.get("format") != SHARD_FORMAT:
            return "corrupt"
        if (
            meta.get("digest") != key.digest
            or meta.get("model_version") != key.model_version
            or meta.get("backend") != SHARD_BACKEND
            or meta.get("device") != key.device
            or meta.get("n") != key.n
        ):
            return "stale"
        block = shard.block
        if block.ndim != 2 or block.shape[0] != 6 or block.dtype != np.int64:
            return "corrupt"
        if meta.get("points") != len(shard):
            return "corrupt"  # torn block/sidecar pair
        if len(shard) and not (np.diff(shard.packed) > 0).all():
            return "corrupt"  # lookups require sorted unique keys
        for values in (shard.time_s, shard.energy_j):
            if not (np.isfinite(values) & (values >= 0)).all():
                return "corrupt"
        return None

    def _shard(self, key: ShardKey) -> _Shard:
        shard = self._shards.get(key.digest)
        if shard is None:
            shard = self._read_shard(key)
            self._shards[key.digest] = shard
        return shard

    def open_shards(self, keys) -> None:
        """Load every shard of ``keys`` not loaded yet into the cache
        that :meth:`contains` and :meth:`lookup` read."""
        pending = {k.digest: k for k in keys if k.digest not in self._shards}
        if not pending:
            return
        with obs.span("store.open_shards", shards=len(pending)):
            for digest, key in pending.items():
                self._shards[digest] = self._read_shard(key)

    # -- queries ------------------------------------------------------------

    def contains(self, key: ShardKey, packed: np.ndarray) -> np.ndarray:
        """Hit mask of a packed-key request.

        The partition half of :meth:`lookup`, for callers that need
        the values only later (the planner partitions every
        experiment's requests up front and serves rows at
        figure-render time).
        """
        with obs.span(
            "store.contains", device=key.device, n=key.n, points=len(packed)
        ):
            shard = self._shard(key)
            hit = self._hit_positions(shard, packed)[0]
            hits = int(hit.sum())
            obs.count("store.shard.hits", hits)
            obs.count("store.shard.misses", len(packed) - hits)
            return hit

    @staticmethod
    def _hit_positions(
        shard: _Shard, packed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(hit, pos_safe)`` of a packed request against one shard."""
        m = len(packed)
        if not (len(shard) and m):
            return np.zeros(m, dtype=bool), np.zeros(m, dtype=np.intp)
        pos = np.searchsorted(shard.packed, packed)
        in_range = pos < len(shard)
        pos_safe = np.where(in_range, pos, 0)
        hit = in_range & (shard.packed[pos_safe] == packed)
        return hit, pos_safe

    def lookup(
        self, key: ShardKey, packed: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Partition a packed-key request into hits and misses.

        One vectorized pass: returns ``(time_s, energy_j, hit)`` arrays
        aligned with ``packed``; miss lanes hold NaN objectives.
        """
        with obs.span(
            "store.lookup",
            device=key.device,
            n=key.n,
            points=len(packed),
        ):
            shard = self._shard(key)
            m = len(packed)
            times = np.full(m, np.nan)
            energies = np.full(m, np.nan)
            hit, pos_safe = self._hit_positions(shard, packed)
            rows = pos_safe[hit]
            times[hit] = shard.time_s[rows]
            energies[hit] = shard.energy_j[rows]
            hits = len(rows)
            obs.count("store.shard.hits", hits)
            obs.count("store.shard.misses", m - hits)
            return times, energies, hit

    # -- writes -------------------------------------------------------------

    def append(
        self,
        key: ShardKey,
        bs: np.ndarray,
        g: np.ndarray,
        r: np.ndarray,
        time_s: np.ndarray,
        energy_j: np.ndarray,
    ) -> int:
        """Merge rows into a shard atomically; returns the new row count.

        Existing rows win on duplicate configuration keys (values are
        deterministic per identity, so the choice is cosmetic).  The
        shard is re-read from disk before merging so rows appended by a
        concurrent writer since our last load are preserved.
        """
        bs = np.asarray(bs, dtype=np.int64)
        g = np.asarray(g, dtype=np.int64)
        r = np.asarray(r, dtype=np.int64)
        time_s = np.asarray(time_s, dtype=np.float64)
        energy_j = np.asarray(energy_j, dtype=np.float64)
        packed = pack_keys(bs, g, r)

        with obs.span(
            "store.append", device=key.device, n=key.n, points=len(packed)
        ):
            return self._append_merged(key, bs, g, r, time_s, energy_j, packed)

    def _append_merged(
        self,
        key: ShardKey,
        bs: np.ndarray,
        g: np.ndarray,
        r: np.ndarray,
        time_s: np.ndarray,
        energy_j: np.ndarray,
        packed: np.ndarray,
    ) -> int:
        current = self._read_shard(key)  # fresh: pick up concurrent rows
        all_packed = np.concatenate([current.packed, packed])
        # np.unique keeps the first occurrence per duplicate, i.e. the
        # existing row; the result is sorted, which lookups require.
        uniq, first = np.unique(all_packed, return_index=True)
        merged = _Shard(
            block=_make_block(
                uniq,
                np.concatenate([current.bs, bs])[first],
                np.concatenate([current.g, g])[first],
                np.concatenate([current.r, r])[first],
                np.concatenate([current.time_s, time_s])[first],
                np.concatenate([current.energy_j, energy_j])[first],
            ),
        )
        self._write_shard(key, merged)
        self._shards[key.digest] = merged
        obs.count("store.shard.appends")
        obs.count("store.points.appended", len(packed))
        return len(merged)

    def _write_shard(self, key: ShardKey, shard: _Shard) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.shard_path(key)
        meta = {
            "format": SHARD_FORMAT,
            "device": key.device,
            "n": key.n,
            "model_version": key.model_version,
            "backend": SHARD_BACKEND,
            "digest": key.digest,
            "points": len(shard),
        }
        tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        try:
            with open(tmp, "wb") as fh:
                np.save(fh, np.ascontiguousarray(shard.block))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        # Sidecar second: a crash between the two replaces leaves a
        # block/sidecar row-count mismatch, which reads as a torn pair
        # (corrupt → recompute), never as wrong values.
        meta_path = self.meta_path(key)
        meta_tmp = meta_path.with_name(f".{meta_path.name}.{os.getpid()}.tmp")
        try:
            meta_tmp.write_text(json.dumps(meta, sort_keys=True) + "\n")
            os.replace(meta_tmp, meta_path)
        finally:
            meta_tmp.unlink(missing_ok=True)
