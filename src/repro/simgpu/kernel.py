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
from dataclasses import dataclass
from functools import lru_cache

from repro.machines.specs import GPUSpec
from repro.simgpu.calibration import GPUCalibration
from repro.simgpu.memhier import TrafficModel, matmul_traffic
from repro.simgpu.warps import lane_efficiency, warps_per_block

__all__ = [
    "avg_rows_per_warp",
    "shared_mem_per_block",
    "max_group_size",
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


def shared_mem_per_block(bs: int, g: int) -> int:
    """Shared memory one block allocates: G tile pairs of BS² doubles."""
    if bs < 1 or g < 1:
        raise ValueError("BS and G must be at least 1")
    return g * 2 * bs * bs * 8


def max_group_size(spec: GPUSpec, bs: int, g_cap: int = 8) -> int:
    """Largest permissible G for tile dimension BS on this GPU.

    Bounded by the per-block shared-memory limit (the paper: "due to
    the limited size of the per-block shared memory, only certain
    (G, R) combinations are permissible for a given BS") and by the
    kernel source's largest group (dgemmG8 ⇒ G ≤ 8).
    """
    per_product = 2 * bs * bs * 8
    if per_product > spec.shared_mem_per_block_bytes:
        return 0
    return min(g_cap, spec.shared_mem_per_block_bytes // per_product)


@dataclass(frozen=True)
class KernelResources:
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


@lru_cache(maxsize=4096)
def matmul_kernel_resources(
    spec: GPUSpec, cal: GPUCalibration, n: int, bs: int, g: int
) -> KernelResources:
    """Build the resource model for one (N, BS, G) kernel launch.

    Memoized across calls: the resource model depends only on the
    hashable frozen ``(spec, cal, n, bs, g)`` — R only scales time and
    energy linearly — so R-repeats and repeated sweeps of the same
    configuration reuse one :class:`KernelResources` instance.

    Raises
    ------
    ValueError
        For invalid sizes or a G exceeding the shared-memory limit —
        configurations that fail to compile/launch on real hardware.
    """
    if n < 1:
        raise ValueError("N must be positive")
    if not (1 <= bs <= int(math.isqrt(spec.max_threads_per_block))):
        raise ValueError(
            f"BS={bs} invalid: BS² must not exceed "
            f"{spec.max_threads_per_block} threads per block"
        )
    gmax = max_group_size(spec, bs)
    if g < 1 or g > gmax:
        raise ValueError(
            f"G={g} not permissible for BS={bs} on {spec.name} (max {gmax})"
        )

    tiles = math.ceil(n / bs)
    threads = bs * bs
    wpb = warps_per_block(threads, spec.warp_size)
    leff = lane_efficiency(threads, spec.warp_size)
    rows = avg_rows_per_warp(bs, spec.warp_size)
    replay = 1.0 + cal.replay_slope * (rows - 1.0)

    # Per tile step per block: each warp issues BS iterations, each with
    # two shared loads through lsu_lanes-wide LSU pipes, scaled by the
    # replay factor and the CPI fudge.
    compute_cycles = (
        2.0 * wpb * bs * (spec.warp_size / cal.lsu_lanes) * replay * cal.cpi
    )

    traffic = matmul_traffic(spec, n, bs, l2_hit_cap=cal.l2_hit_cap)
    tile_fetch = (
        2.0 * threads * 8.0
        / traffic.coalescing
        * (1.0 - traffic.l2_hit_fraction)
    )

    # Icache pressure: each extra repeated product code slows issue.
    icache = 1.0 + cal.icache_penalty * (g - 1)

    return KernelResources(
        n=n,
        bs=bs,
        g=g,
        threads_per_block=threads,
        smem_per_block_bytes=shared_mem_per_block(bs, g),
        grid_blocks=tiles * tiles,
        ksteps_per_product=tiles,
        compute_cycles_per_kstep=compute_cycles * icache,
        tile_fetch_bytes=tile_fetch,
        total_dram_bytes=g * traffic.total_dram_bytes,
        lanes_issued=(
            g * float(tiles * tiles) * tiles * wpb * spec.warp_size * bs * replay
        ),
        useful_flops=g * 2.0 * float(n) ** 3,
        lane_eff=leff,
        replay_factor=replay,
        traffic=traffic,
    )
