"""Analytical resource/issue model of the paper's blocked matmul kernel.

One *product* is ``C += A·B`` for dense ``N×N`` doubles with per-block
shared-memory tile dimension BS (Fig. 5 of the paper, lines 1-21):
each of the ``ceil(N/BS)²`` blocks walks ``ceil(N/BS)`` tile steps; per
step it loads an ``As``/``Bs`` tile pair, synchronizes, and each thread
accumulates BS fused multiply-adds from shared memory.

A *kernel launch* executes a group of G textually repeated product
codes (lines 22-34); each repeated code declares its own pair of
``__shared__`` arrays, so shared memory per block is ``G·2·BS²·8``
bytes — which is why only certain G are permissible for a given BS and
why G moves the occupancy.

This module turns ``(N, BS, G)`` into the issue/traffic quantities the
device timing and power models consume.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from repro.machines.specs import GPUSpec
from repro.simgpu.calibration import GPUCalibration
from repro.simgpu.memhier import TrafficModel, matmul_traffic
from repro.simgpu.occupancy import warps_per_block

__all__ = [
    "avg_rows_per_warp",
    "shared_mem_per_block",
    "max_group_size",
    "tile_fits",
    "group_fits",
    "check_launch",
    "resource_terms",
    "KernelResources",
    "matmul_kernel_resources",
]


@lru_cache(maxsize=None)
def avg_rows_per_warp(bs: int, warp_size: int = 32) -> float:
    """Average number of distinct tile rows (ty values) a warp spans.

    Threads are linearized as ``tid = ty·BS + tx``; a warp holds
    ``warp_size`` consecutive tids.  Each distinct ``ty`` inside a warp
    turns the ``As[ty][k]`` broadcast into a separate shared-memory
    transaction, so this count drives the replay factor.  Exactly 1 for
    BS ≥ warp_size; jagged between 2 and ~warp_size below it.
    """
    if bs < 1:
        raise ValueError("BS must be at least 1")
    threads = bs * bs
    n_warps = math.ceil(threads / warp_size)
    total_rows = 0
    for w in range(n_warps):
        first = w * warp_size
        last = min(threads, first + warp_size) - 1
        total_rows += (last // bs) - (first // bs) + 1
    return total_rows / n_warps


def shared_mem_per_block(bs, g):
    """Shared memory one block allocates: G tile pairs of BS² doubles
    (Python ints, or int64 arrays of lanes)."""
    return g * 2 * bs * bs * 8


def max_group_size(spec: GPUSpec, bs, g_cap: int = 8, minimum=min):
    """Largest permissible G for tile dimension BS on this GPU.

    Bounded by the per-block shared-memory limit (the paper: "due to
    the limited size of the per-block shared memory, only certain
    (G, R) combinations are permissible for a given BS") and by the
    kernel source's largest group (dgemmG8 ⇒ G ≤ 8); 0 when not even
    one product's tile pair fits.  ``minimum`` is ``np.minimum`` for an
    int64 array of BS.
    """
    per_product = shared_mem_per_block(bs, 1)
    return minimum(g_cap, spec.shared_mem_per_block_bytes // per_product)


def tile_fits(spec: GPUSpec, bs):
    """Whether BS is a tile dimension: at least 1, with BS² threads
    within one block's limit.  Python ints, or int64 arrays of lanes."""
    return (bs >= 1) & (bs <= math.isqrt(spec.max_threads_per_block))


def group_fits(spec: GPUSpec, bs, g, minimum):
    """Whether G is permissible for the tile dimension BS (which
    :func:`tile_fits`), as :func:`max_group_size` bounds it."""
    return (g >= 1) & (g <= max_group_size(spec, bs, minimum=minimum))


def check_launch(spec: GPUSpec, n: int, bs: int, g: int) -> None:
    """Raise ValueError for a non-positive N, an invalid BS or a G over
    the shared-memory limit: launches that fail on real hardware."""
    if n < 1:
        raise ValueError("N must be positive")
    if not tile_fits(spec, bs):
        raise ValueError(
            f"BS={bs} invalid: BS² must not exceed "
            f"{spec.max_threads_per_block} threads per block"
        )
    if not group_fits(spec, bs, g, min):
        raise ValueError(
            f"G={g} not permissible for BS={bs} on {spec.name} "
            f"(max {max_group_size(spec, bs)})"
        )


def resource_terms(
    spec: GPUSpec, cal, n, bs, g, rows, traffic: TrafficModel, ceil
) -> tuple:
    """:class:`KernelResources`' fields from ``threads_per_block`` to
    ``lanes_issued``, in order, then the warps per block and the replay
    factor, given ``rows`` (:func:`avg_rows_per_warp` of BS) and one
    product's ``traffic``.

    The one copy of these terms: :func:`matmul_kernel_resources` calls
    it on Python ints with ``math.ceil``, the batch model on int64
    arrays of lanes with ``np.ceil``.  No ``pow`` enters it, and its
    integer products are exact in float64 for any N a GPU's memory
    holds, so each lane has its scalar call's bits.
    """
    tiles = ceil(n / bs)
    grid_blocks = tiles * tiles
    threads = bs * bs
    warps = warps_per_block(spec, threads, ceil)
    replay = 1.0 + cal.replay_slope * (rows - 1.0)

    # Per tile step per block: each warp issues BS iterations, each with
    # two shared loads through lsu_lanes-wide LSU pipes, scaled by the
    # replay factor and the CPI fudge.
    compute_cycles = (
        2.0 * warps * bs * (spec.warp_size / cal.lsu_lanes) * replay * cal.cpi
    )
    # Icache pressure: each extra repeated product code slows issue.
    icache = 1.0 + cal.icache_penalty * (g - 1)
    tile_fetch = (
        2.0 * threads * 8.0
        / traffic.coalescing
        * (1.0 - traffic.l2_hit_fraction)
    )
    lanes_issued = g * grid_blocks * tiles * warps * spec.warp_size * bs * replay
    return (
        threads,
        shared_mem_per_block(bs, g),
        grid_blocks,
        tiles,
        compute_cycles * icache,
        tile_fetch,
        g * traffic.total_dram_bytes,
        lanes_issued,
        warps,
        replay,
    )


class KernelResources(NamedTuple):
    """Issue/traffic quantities of one launch of a G-group matmul kernel.

    All totals are for the *whole launch* (G products).
    """

    n: int
    bs: int
    g: int
    threads_per_block: int
    smem_per_block_bytes: int
    grid_blocks: int
    ksteps_per_product: int
    #: Issue cycles per tile step per block (shared-load bound path),
    #: including replay and CPI calibration.
    compute_cycles_per_kstep: float
    #: DRAM bytes one block fetches per tile step: the As/Bs tile pair,
    #: inflated by partially used sectors and net of L2 hits.  The
    #: device turns them into memory cycles at the operating clock.
    tile_fetch_bytes: float
    #: Launch-total DRAM traffic (bytes).
    total_dram_bytes: float
    #: Launch-total issued warp-lane slots (incl. wasted lanes and
    #: replays) — the quantity compute energy scales with.
    lanes_issued: float
    #: Launch-total useful double-precision flops (2·N³·G).
    useful_flops: float
    lane_eff: float
    replay_factor: float
    traffic: TrafficModel


def matmul_kernel_resources(
    spec: GPUSpec, cal: GPUCalibration, n: int, bs: int, g: int
) -> KernelResources:
    """Build the resource model for one (N, BS, G) kernel launch.

    Not memoized: a :class:`repro.simgpu.device.GPUDevice` builds it
    only on a device-table miss, and its table entry keeps the record.
    Raises ValueError where :func:`check_launch` does.
    """
    check_launch(spec, n, bs, g)
    traffic = matmul_traffic(spec, n, bs, l2_hit_cap=cal.l2_hit_cap)
    *fields, warps, replay = resource_terms(
        spec, cal, n, bs, g, avg_rows_per_warp(bs, spec.warp_size), traffic,
        math.ceil,
    )
    return KernelResources(
        n, bs, g, *fields, g * 2.0 * float(n) ** 3,
        fields[0] / (warps * spec.warp_size), replay, traffic,
    )
