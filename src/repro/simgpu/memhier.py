"""GPU memory-hierarchy model: coalescing, L2 reuse, DRAM traffic.

The blocked matmul's global-memory behaviour as a function of the tile
dimension BS:

* Each block loads ``ceil(N/BS)`` tile pairs of ``BS²`` doubles; across
  the ``ceil(N/BS)²`` blocks the total element loads are
  ``2·N³/BS`` — the classic ``1/BS`` traffic reduction from shared-
  memory blocking.
* Each warp-row load touches ``8·BS`` contiguous bytes; DRAM moves
  fixed-size sectors, so the *fetched* bytes are rounded up to sector
  multiples.  Coalescing efficiency therefore steps at sector
  boundaries — jagged in BS.
* Tiles of B are reused by the blocks of one grid row; a fraction of
  those re-loads hit in L2, bounded by how much of a tile working set
  the L2 covers.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from repro.machines.specs import GPUSpec

__all__ = [
    "coalescing_efficiency", "TrafficModel", "matmul_traffic", "traffic_terms",
]


def coalescing_efficiency(row_bytes, sector_bytes, ceil=math.ceil):
    """Useful fraction of DRAM sectors fetched for one contiguous row.

    ``row_bytes`` (at least 1) contiguous useful bytes require
    ``ceil(row_bytes / sector_bytes)`` sectors; efficiency is the useful
    fraction ∈ (0, 1].  Python ints with ``math.ceil``, or int64 arrays
    with ``np.ceil``.
    """
    return row_bytes / (ceil(row_bytes / sector_bytes) * sector_bytes)


class TrafficModel(NamedTuple):
    """Global-memory traffic of one matmul product on one GPU.

    Attributes
    ----------
    useful_read_bytes:
        Algorithmic element loads × 8 bytes (before coalescing/L2).
    l2_hit_fraction:
        Fraction of tile loads served by L2.
    dram_read_bytes:
        Bytes actually moved from DRAM (after coalescing rounding and
        L2 hits).
    dram_write_bytes:
        Result-matrix writeback bytes.
    coalescing:
        Row coalescing efficiency used.
    """

    useful_read_bytes: float
    l2_hit_fraction: float
    dram_read_bytes: float
    dram_write_bytes: float
    coalescing: float

    @property
    def total_dram_bytes(self) -> float:
        return self.dram_read_bytes + self.dram_write_bytes


def traffic_terms(spec: GPUSpec, n, bs, l2_hit_cap, ceil, minimum) -> tuple:
    """:class:`TrafficModel`'s fields, in order, of one product.

    The one copy of the traffic model: :func:`matmul_traffic` calls it
    on Python ints with ``math.ceil`` and ``min``, and the batch model
    (:mod:`repro.simgpu.batch`) on int64 arrays of lanes with
    ``np.ceil`` and ``np.minimum``.  No ``pow`` enters it, so each lane
    holds the bits of its scalar call.
    """
    tiles_per_dim = ceil(n / bs)
    # Element loads: each block walks tiles_per_dim tile pairs of BS²
    # elements; grid has tiles_per_dim² blocks.
    cube = tiles_per_dim * tiles_per_dim * tiles_per_dim
    useful_read = 2.0 * cube * bs * bs * 8.0

    coal = coalescing_efficiency(8 * bs, spec.dram_sector_bytes, ceil)
    fetched = useful_read / coal

    # L2 reuse: the blocks of one grid row share the same column strip
    # of B (N·BS·8 bytes per tile step).  The hit fraction is the share
    # of that strip the L2 retains, at most 50% of the combined A+B
    # stream (A tiles are block-private and stream through).
    strip_bytes = n * bs * 8.0
    l2_hit = minimum(l2_hit_cap, l2_hit_cap * spec.l2_bytes / strip_bytes)

    dram_read = fetched * (1.0 - l2_hit)
    dram_write = n * n * 8.0  # one C writeback per product
    return useful_read, l2_hit, dram_read, dram_write, coal


@lru_cache(maxsize=4096)
def matmul_traffic(
    spec: GPUSpec, n: int, bs: int, *, l2_hit_cap: float = 0.5
) -> TrafficModel:
    """Traffic of one ``N×N`` double-precision product with tile BS.

    ``l2_hit_cap`` bounds the L2 hit fraction; it is a per-device
    calibration knob (streaming-friendly replacement policies retain
    less of the B strip).

    Memoized: the model is a pure function of hashable frozen inputs,
    and R-repeats / repeated sweeps of the same ``(N, BS)`` re-request
    the identical traffic model.
    """
    if n < 1:
        raise ValueError("N must be positive")
    if bs < 1:
        raise ValueError("BS must be positive")
    if not (0.0 <= l2_hit_cap <= 1.0):
        raise ValueError("l2_hit_cap must be in [0, 1]")
    return TrafficModel(
        *traffic_terms(spec, n, bs, l2_hit_cap, math.ceil, min)
    )
