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
register-light).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from repro.machines.specs import GPUSpec

__all__ = ["Occupancy", "compute_occupancy"]


@dataclass(frozen=True)
class Occupancy:
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


#: Register file size per SM on the modelled parts (64K 32-bit regs).
REGISTERS_PER_SM = 65536


@lru_cache(maxsize=4096)
def compute_occupancy(
    spec: GPUSpec,
    threads_per_block: int,
    smem_per_block_bytes: int,
    *,
    regs_per_thread: int = 0,
) -> Occupancy:
    """Apply the CUDA per-SM residency rules.

    ``regs_per_thread`` adds the register-pressure limit
    (``floor(64K / (regs · threads))`` blocks); 0 disables it — the
    paper's kernel is register-light (≈ 30 regs, never the limiter for
    BS ≥ 8), so the default models it as unconstrained.

    Memoized across calls, like
    :func:`repro.simgpu.kernel.matmul_kernel_resources`: the result is a
    frozen :class:`Occupancy` that depends only on the hashable spec,
    the block shape and the register count, and a sweep revisits the
    same few block shapes at every matrix size.

    Raises
    ------
    ValueError
        If the block violates a hard launch limit (too many threads per
        block, more shared memory than a block may allocate, or more
        registers than the file holds) — such configurations fail to
        launch on real hardware and are excluded from the paper's
        sweeps.
    """
    if threads_per_block < 1:
        raise ValueError("block must have at least one thread")
    if threads_per_block > spec.max_threads_per_block:
        raise ValueError(
            f"{threads_per_block} threads/block exceeds the launch limit "
            f"{spec.max_threads_per_block} on {spec.name}"
        )
    if smem_per_block_bytes < 0:
        raise ValueError("shared memory per block must be non-negative")
    if smem_per_block_bytes > spec.shared_mem_per_block_bytes:
        raise ValueError(
            f"{smem_per_block_bytes} B shared memory/block exceeds the "
            f"limit {spec.shared_mem_per_block_bytes} B on {spec.name}"
        )
    if regs_per_thread < 0:
        raise ValueError("registers per thread must be non-negative")
    if regs_per_thread * threads_per_block > REGISTERS_PER_SM:
        raise ValueError(
            f"{regs_per_thread} regs x {threads_per_block} threads "
            f"exceed the {REGISTERS_PER_SM}-register file"
        )

    warps_per_block = math.ceil(threads_per_block / spec.warp_size)
    max_warps = spec.max_threads_per_sm // spec.warp_size
    by_threads = spec.max_threads_per_sm // threads_per_block
    # Residency is warp-granular: a block of 676 threads occupies 22
    # warps, so only 2 such blocks fit the 64-warp budget even though 3
    # would fit the raw thread budget.  This jaggedness is a real CUDA
    # residency rule and a major source of the non-monotone energy
    # landscape over BS.
    by_warps = max_warps // warps_per_block
    by_blocks = spec.max_blocks_per_sm
    if smem_per_block_bytes > 0:
        by_smem = spec.shared_mem_per_sm_bytes // smem_per_block_bytes
    else:
        by_smem = by_blocks  # shared memory imposes no limit
    if regs_per_thread > 0:
        by_regs = REGISTERS_PER_SM // (regs_per_thread * threads_per_block)
    else:
        by_regs = by_blocks
    blocks = min(by_threads, by_warps, by_blocks, by_smem, by_regs)
    if blocks < 1:
        # threads/smem fit a single block by the launch-limit checks
        # above, so this can only happen through by_smem == 0 with
        # smem_per_block <= per-block limit but > per-SM budget, which
        # no real part exhibits; guard anyway.
        raise ValueError("kernel cannot fit a single block on an SM")

    if regs_per_thread > 0 and blocks == by_regs and by_regs < min(
        by_threads, by_warps, by_blocks, by_smem
    ):
        limiter = "registers"
    elif blocks == by_smem and by_smem < min(by_threads, by_warps, by_blocks):
        limiter = "shared_memory"
    elif blocks == min(by_threads, by_warps) and blocks < by_blocks:
        limiter = "warps" if by_warps < by_threads else "threads"
    else:
        limiter = "blocks"

    threads = blocks * threads_per_block
    return Occupancy(
        blocks_per_sm=blocks,
        active_threads_per_sm=threads,
        active_warps_per_sm=blocks * warps_per_block,
        occupancy=threads / spec.max_threads_per_sm,
        warp_occupancy=blocks * warps_per_block / max_warps,
        limiter=limiter,
    )
