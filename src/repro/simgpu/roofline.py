"""Roofline placement of kernel launches.

Classifies a kernel configuration against the device's compute and
memory rooflines and reports which resource binds in the pipeline
model — the diagnostic that explains the simulator's (and the paper's)
BS structure: tiny tiles drown in DRAM traffic and latency, the
BS ∈ [16, 32] band is shared-memory-issue bound, and BS = 32 wins by
shedding replays, not by bandwidth.

The verdict reads the device's own clock probe
(:func:`repro.simgpu.power.probe`) at the base clock, over the terms
``run_matmul`` builds for the configuration, so it cannot drift from
the timing model it explains.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machines.specs import GPUSpec
from repro.simgpu.calibration import GPUCalibration, calibration_for
from repro.simgpu.device import _KernelTerms
from repro.simgpu.kernel import matmul_kernel_resources
from repro.simgpu.occupancy import compute_occupancy
from repro.simgpu.power import probe, scalar_max

__all__ = ["RooflinePlacement", "classify_matmul"]


@dataclass(frozen=True)
class RooflinePlacement:
    """Where one (N, BS, G) configuration sits on the roofline.

    Attributes
    ----------
    arithmetic_intensity:
        Useful flops per DRAM byte moved.
    ridge_intensity:
        The device ridge point ``peak_flops / peak_bandwidth``; above it
        the classical roofline predicts compute-bound execution.
    bound:
        What actually binds in the pipeline model: ``"issue"`` (the
        shared-memory/LSU path), ``"latency"`` (insufficient resident
        blocks to hide the tile-load phase) or ``"bandwidth"`` (the
        whole-launch DRAM roofline).
    issue_cycles / memory_cycles:
        Per-tile-step per-block cycle costs at the base clock.
    blocks_per_sm:
        Resident blocks (the latency-hiding budget).
    """

    n: int
    bs: int
    g: int
    arithmetic_intensity: float
    ridge_intensity: float
    bound: str
    issue_cycles: float
    memory_cycles: float
    blocks_per_sm: int

    @property
    def classically_compute_bound(self) -> bool:
        """The textbook roofline verdict (AI above the ridge)."""
        return self.arithmetic_intensity >= self.ridge_intensity


def classify_matmul(
    spec: GPUSpec,
    n: int,
    bs: int,
    g: int = 1,
    cal: GPUCalibration | None = None,
) -> RooflinePlacement:
    """Classify one matmul configuration on one GPU."""
    if cal is None:
        cal = calibration_for(spec)
    res = matmul_kernel_resources(spec, cal, n, bs, g)
    occ = compute_occupancy(spec, res.threads_per_block, res.smem_per_block_bytes)
    terms = _KernelTerms(spec, cal, res, occ)
    *_, (mem_cycles, per_block, t_pipe) = probe(
        terms, spec.base_clock_hz, scalar_max
    )
    issue = terms.compute_cycles
    if terms.t_dram > t_pipe:
        bound = "bandwidth"
    elif per_block > issue:
        bound = "latency"
    else:
        bound = "issue"

    return RooflinePlacement(
        n=n,
        bs=bs,
        g=g,
        arithmetic_intensity=res.useful_flops / res.total_dram_bytes,
        ridge_intensity=spec.peak_dp_flops / spec.mem_bandwidth_bps,
        bound=bound,
        issue_cycles=issue,
        memory_cycles=mem_cycles,
        blocks_per_sm=occ.blocks_per_sm,
    )
