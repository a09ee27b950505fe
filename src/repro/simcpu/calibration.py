"""Calibration constants for the multicore CPU simulator.

As with the GPU calibration, every non-datasheet constant lives here
with its rationale.  Absolute targets: MKL DGEMM on the dual-socket
Haswell peaks near 700 GFLOPs (the paper's Fig. 4 plateau) at a
dynamic power of ~130-150 W; OpenBLAS peaks slightly lower.  Shape
targets (Fig. 4): performance is linear in average CPU utilization up
to the plateau; dynamic power is *nonfunctional* in average utilization
— configurations with equal average utilization differ in power through
their per-core utilization distributions and dTLB activity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

__all__ = ["CPUCalibration", "HASWELL_CAL", "LibraryProfile", "LIBRARIES"]


class LibraryProfile(NamedTuple):
    """BLAS-library efficiency profile.

    Attributes
    ----------
    name:
        ``"mkl"`` or ``"openblas"``.
    peak_efficiency:
        Fraction of a core's peak DP throughput a well-shaped
        single-thread DGEMM achieves.
    skinny_rows:
        Per-thread row-block height below which the inner kernel can no
        longer use full register blocking; efficiency degrades linearly
        to ``skinny_floor`` as the block shrinks to 1 row.
    skinny_floor:
        Efficiency fraction retained for 1-row blocks.
    """

    name: str
    peak_efficiency: float
    skinny_rows: int
    skinny_floor: float
    #: dTLB page-walk multiplier of the library's packing strategy
    #: (OpenBLAS's packed-buffer walk pattern is less TLB friendly).
    walk_factor: float = 1.0


LIBRARIES: dict[str, LibraryProfile] = {
    "mkl": LibraryProfile(
        name="mkl",
        peak_efficiency=0.88,
        skinny_rows=64,
        skinny_floor=0.45,
        walk_factor=1.0,
    ),
    "openblas": LibraryProfile(
        name="openblas",
        peak_efficiency=0.80,
        skinny_rows=96,
        skinny_floor=0.40,
        walk_factor=1.4,
    ),
}


@dataclass(frozen=True)
class CPUCalibration:
    """Tunable constants of the CPU timing/power/utilization model.

    Timing
    ------
    smt_throughput:
        Combined throughput of two hyperthreads sharing one physical
        core, relative to one thread owning it.  DGEMM saturates the
        FMA ports with one thread, so SMT is neutral (1.0) — the source
        of Fig. 4's performance plateau between 50% and 100% average
        utilization.
    traffic_bytes_per_flop:
        DRAM traffic per flop of a blocked DGEMM (cache-blocked kernels
        move ~8 bytes per ~200 flops).
    imbalance_base / imbalance_per_group:
        Deterministic completion-time imbalance among threads:
        1-sigma-equivalent spread for a single threadgroup, plus growth
        per extra threadgroup (each group streams B independently,
        increasing contention jitter).  This is the mechanism that makes
        per-core utilizations differ "due to the complexity of the
        system architecture" while the workload stays balanced.
    Power
    -----
    p_core_base_w:
        Power of waking one physical core (clock tree, L1/L2).
    e_flop_j:
        Incremental energy per double-precision flop (vector units).
    p_smt_extra_w:
        Extra power when a core's second hyperthread is active.
    e_dram_j_per_byte:
        DRAM + uncore energy per byte moved.
    p_uncore_w:
        Per-socket uncore wake power (ring, LLC, memory controller).
    e_page_walk_j:
        Energy per dTLB page walk — the disproportionately expensive
        activity [8] identifies as the driver of CPU energy
        nonproportionality.
    walks_per_gb / walk_thrash_per_group:
        Page-walk volume per GB of DRAM traffic for a single stream,
        and its multiplicative growth per extra threadgroup (more
        concurrent B streams thrash the dTLB).
    time_jitter:
        1-sigma run-to-run wall-time noise for the noisy-run API.
    """

    smt_throughput: float = 1.0
    traffic_bytes_per_flop: float = 0.04
    imbalance_base: float = 0.02
    imbalance_per_group: float = 0.004
    p_core_base_w: float = 1.6
    e_flop_j: float = 70e-12
    p_smt_extra_w: float = 0.5
    e_dram_j_per_byte: float = 60e-12
    p_uncore_w: float = 7.0
    e_page_walk_j: float = 80e-9
    walks_per_gb: float = 2.6e5
    walk_thrash_per_group: float = 1.5
    time_jitter: float = 0.008


HASWELL_CAL = CPUCalibration()
