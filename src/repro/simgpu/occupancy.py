"""CUDA occupancy calculator.

Occupancy — the fraction of an SM's maximum resident threads actually
occupied by a kernel — is determined by the most restrictive of three
per-SM limits: resident threads, resident blocks, and shared memory.
For the paper's blocked matmul, shared memory per block is
``G · 2 · BS² · 8`` bytes (each textually repeated product code declares
its own ``__shared__ double As[BS][BS], Bs[BS][BS]`` pair), so both the
tile size *and* the group size G move the occupancy — the mechanism
behind the jagged energy/performance landscape of Figs. 2, 7, 8.

This mirrors the vendor occupancy-calculator rules for the limits we
model; register pressure is not modelled (the paper's kernel is
register-light, about 30 registers a thread, and never register-bound).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

from repro.machines.specs import GPUSpec

__all__ = ["Occupancy", "compute_occupancy", "residency", "warps_per_block"]


class Occupancy(NamedTuple):
    """Occupancy of one kernel on one GPU.

    Attributes
    ----------
    blocks_per_sm:
        Concurrently resident blocks per SM.
    active_threads_per_sm / active_warps_per_sm:
        Resident threads/warps per SM.
    occupancy:
        ``active_threads_per_sm / max_threads_per_sm`` ∈ (0, 1].
    warp_occupancy:
        ``active_warps_per_sm / max_warps_per_sm`` ∈ (0, 1] — the
        residency measure activity power scales with (warp schedulers
        and register banks are provisioned per warp slot).
    limiter:
        Which resource bound blocks_per_sm: ``"threads"``, ``"warps"``,
        ``"blocks"`` or ``"shared_memory"``.
    """

    blocks_per_sm: int
    active_threads_per_sm: int
    active_warps_per_sm: int
    occupancy: float
    warp_occupancy: float
    limiter: str


def warps_per_block(spec: GPUSpec, threads_per_block, ceil):
    """The warps one block occupies: a partial warp counts whole.

    The one copy of the warp count: the residency rule, the issue terms
    (:func:`repro.simgpu.kernel.resource_terms`) and the CUPTI event
    model call it on Python ints with ``math.ceil``, the batch model on
    int64 arrays of lanes with ``np.ceil``.
    """
    return ceil(threads_per_block / spec.warp_size)


def residency(
    spec: GPUSpec, threads_per_block, smem_per_block_bytes, ceil, minimum
) -> tuple:
    """``(by_threads, by_warps, by_smem, blocks_per_sm,
    active_warps_per_sm, warp_occupancy)``: the blocks each per-SM
    budget admits, their minimum with the block slots, and the resident
    warps and warp occupancy that gives.

    The one copy of the residency rule: :func:`compute_occupancy` calls
    it on Python ints with ``math.ceil`` and ``min``, the batch model on
    int64 arrays of lanes with ``np.ceil`` and ``np.minimum``.
    """
    block_warps = warps_per_block(spec, threads_per_block, ceil)
    max_warps = spec.max_threads_per_sm // spec.warp_size
    by_threads = spec.max_threads_per_sm // threads_per_block
    # Residency is warp-granular: a block of 676 threads occupies 22
    # warps, so only 2 such blocks fit the 64-warp budget even though 3
    # would fit the raw thread budget.  This jaggedness is a real CUDA
    # residency rule and a major source of the non-monotone energy
    # landscape over BS.
    by_warps = max_warps // block_warps
    by_smem = spec.shared_mem_per_sm_bytes // smem_per_block_bytes
    blocks = minimum(
        minimum(by_threads, by_warps),
        minimum(spec.max_blocks_per_sm, by_smem),
    )
    active_warps = blocks * block_warps
    return (
        by_threads, by_warps, by_smem, blocks, active_warps,
        active_warps / max_warps,
    )


@lru_cache(maxsize=4096)
def compute_occupancy(
    spec: GPUSpec, threads_per_block: int, smem_per_block_bytes: int
) -> Occupancy:
    """Apply the CUDA per-SM residency rules (:func:`residency`).

    Memoized across calls: the result is an immutable :class:`Occupancy`
    that depends only on the hashable spec and the block shape, and a
    sweep revisits the same few block shapes at every matrix size.

    Raises
    ------
    ValueError
        If the block violates a hard launch limit (too many threads per
        block, or more shared memory than a block may allocate) — such
        configurations fail to launch on real hardware and are excluded
        from the paper's sweeps — or allocates no shared memory, which
        no launch of the paper's kernel does.
    """
    if threads_per_block < 1:
        raise ValueError("block must have at least one thread")
    if threads_per_block > spec.max_threads_per_block:
        raise ValueError(
            f"{threads_per_block} threads/block exceeds the launch limit "
            f"{spec.max_threads_per_block} on {spec.name}"
        )
    if smem_per_block_bytes < 1:
        raise ValueError(
            "shared memory per block must be positive: every launch "
            "allocates at least one tile pair"
        )
    if smem_per_block_bytes > spec.shared_mem_per_block_bytes:
        raise ValueError(
            f"{smem_per_block_bytes} B shared memory/block exceeds the "
            f"limit {spec.shared_mem_per_block_bytes} B on {spec.name}"
        )

    by_threads, by_warps, by_smem, blocks, active_warps, warp_occupancy = (
        residency(spec, threads_per_block, smem_per_block_bytes, math.ceil, min)
    )
    if blocks < 1:  # a block over the per-SM, not per-block, smem budget
        raise ValueError("kernel cannot fit a single block on an SM")

    by_blocks = spec.max_blocks_per_sm
    if blocks == by_smem and by_smem < min(by_threads, by_warps, by_blocks):
        limiter = "shared_memory"
    elif blocks == min(by_threads, by_warps) and blocks < by_blocks:
        limiter = "warps" if by_warps < by_threads else "threads"
    else:
        limiter = "blocks"

    threads = blocks * threads_per_block
    return Occupancy(
        blocks, threads, active_warps, threads / spec.max_threads_per_sm,
        warp_occupancy, limiter,
    )
