"""GPU component power model.

Dynamic board power during a kernel is the sum of:

* **Compute** — energy per issued warp-lane slot (FMA + two shared
  loads) times the issue rate.  Lane slots include wasted lanes of
  partial warps and shared-memory replays: dark lanes still clock.
* **DRAM** — access energy per byte times the DRAM byte rate.
* **Activity floor** — clock distribution, warp schedulers and register
  file standby: a base term plus a term proportional to occupancy.
  This is the component that makes *resident-but-idle* warps expensive
  and decouples energy from performance for issue-bound kernels.
* **Auxiliary component** — the paper's 58 W constant-power activity
  during inter-group windows, active only below the device's
  additivity-threshold matrix size (Section V.A, Fig. 6).

Core-clocked components scale as ``(f/f_base)^volt_exp`` along the DVFS
curve (V²f scaling); DRAM power does not scale with core clock.

The model is written once, here, over Python numbers or NumPy arrays
alike: :func:`clock_free_terms` computes what the clock does not move,
and :func:`probe` evaluates one clock.  The scalar model
(:meth:`repro.simgpu.device.GPUDevice.run_matmul`), the batch model
(:func:`repro.simgpu.batch.batch_run_matmul`) and the roofline verdict
(:func:`repro.simgpu.roofline.classify_matmul`) all call them.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.machines.specs import GPUSpec

__all__ = [
    "PowerBreakdown",
    "aux_decay",
    "clock_free_terms",
    "probe",
    "scalar_max",
]


class PowerBreakdown(NamedTuple):
    """Average dynamic power of one kernel launch, by component (watts)."""

    compute_w: float
    dram_w: float
    activity_w: float
    aux_w: float
    #: Temperature-driven leakage *excess* over the cold-idle baseline.
    #: The wall-meter methodology subtracts an idle (cold) baseline, so
    #: the extra leakage of a hot die is measured as dynamic energy.
    leakage_w: float

    @property
    def dynamic_w(self) -> float:
        return (
            self.compute_w
            + self.dram_w
            + self.activity_w
            + self.aux_w
            + self.leakage_w
        )


def aux_decay(spec: GPUSpec, n: int) -> float:
    """Strength of the auxiliary component at matrix size N, ∈ [0, 1].

    Full strength for tiny matrices, decaying quartically to zero at
    the device's additivity threshold (paper: "the non-additivity keeps
    decreasing before becoming zero for matrix sizes exceeding
    N=15360" on the P100; N=10240 on the K40c).  The quartic keeps the
    component near full strength through mid-range sizes (the Fig. 6
    plots stay strongly non-additive up to ~N=10240 on the P100) and
    collapses it near the threshold.
    """
    if n < 1:
        raise ValueError("N must be positive")
    ratio = n / spec.additivity_threshold_n
    return max(0.0, 1.0 - ratio**4)


def scalar_max(a, b):
    """:func:`probe`'s ``maximum`` on floats: the operand ``max(a, b)``
    returns, at a fraction of the builtin's cost (docs/MODEL.md §1.9)."""
    return b if b > a else a


def clock_free_terms(
    spec: GPUSpec, cal, grid_blocks, ksteps, dram_bytes, g, active_warps,
    occupancy, decay, ceil, minimum,
) -> tuple:
    """``(sm_steps, t_dram, activity_base_w, aux_windows_w)`` of a launch.

    What :func:`probe` needs that the clock does not move, computed once
    per DVFS solve: the tile steps one SM runs per product, the
    whole-launch DRAM roofline time, the activity floor before clock
    scaling, ``a0 + a1·ω^k``, and the auxiliary draw over the (G-1)
    inter-group windows, ``58 W · decay(N) · (G-1)``.  The operands are
    Python numbers with ``math.ceil`` and ``min``, or per-lane arrays
    with ``np.ceil`` and ``np.minimum``; ``decay`` is :func:`aux_decay`.
    """
    # Tile steps one SM runs per product: its share of the grid's
    # blocks, each walking every k-step.
    sm_steps = ceil(grid_blocks / spec.sm_count) * ksteps
    # DRAM bandwidth saturates with resident warps.
    bw_sat = minimum(1.0, active_warps / cal.warps_to_saturate_bw)
    t_dram = (dram_bytes / g) / (spec.mem_bandwidth_bps * bw_sat)
    # Activity power is superlinear in occupancy on parts with
    # fine-grained clock gating (occ_exp > 1: near-zero draw at low
    # residency, steep near full residency); Kepler-class coarse gating
    # is occ_exp = 1 with a large base term.
    activity_base_w = cal.p_act0_w + cal.p_act1_w * occupancy**cal.occ_exp
    # The auxiliary component draws aux_power_w during the (G-1)
    # inter-group windows, each lasting one product time.
    aux_windows_w = cal.aux_power_w * decay * (g - 1)
    return sm_steps, t_dram, activity_base_w, aux_windows_w


def probe(terms, clock_hz, maximum) -> tuple:
    """One clock of one launch, or of every lane of a batch.

    Returns ``(dynamic_w, t_product_s, t_launch_s, components,
    pipeline)``: ``components`` is ``(compute, dram, activity, aux,
    leakage)`` watts, ``dynamic_w`` their left-to-right sum, and
    ``pipeline`` is ``(mem_cycles, per_block_cycles, t_pipe_s)`` of one
    tile step and one product, which name the binding resource.
    ``terms`` holds, as attributes of the names read below, the
    configuration's counts, its :func:`clock_free_terms` and the spec
    and calibration constants.  They and ``clock_hz`` are Python
    numbers, with ``maximum`` being :func:`scalar_max`, or arrays over
    lanes with ``np.maximum``; a clock every lane shares stays a Python
    float.
    """
    k = terms
    # Per tile step per block: global-memory latency plus the tile
    # transfer at the SM's bandwidth share, in core cycles.
    bw_per_sm = k.mem_bandwidth_bps / (clock_hz * k.sm_count)
    mem_cycles = k.mem_latency_cycles + k.tile_fetch_bytes / bw_per_sm
    # Not double-buffered: a block's load hides only under the other
    # resident blocks' compute (docs/MODEL.md §1.5).
    compute = k.compute_cycles
    per_block = maximum(compute, (compute + mem_cycles) / k.blocks_per_sm)
    t_pipe = k.sm_steps * per_block / clock_hz
    t_product = maximum(t_pipe, k.t_dram)
    # The launch time's G·t and the launch-average rates' G·t are the
    # same product.
    g_t = k.g * t_product
    t_launch = k.launch_overhead_s + g_t
    x = clock_hz / k.base_clock_hz
    compute_w = k.e_lane_j * x ** (k.volt_exp - 1.0) * (k.lanes_issued / g_t)
    dram_w = k.e_dram_j_per_byte * (k.dram_bytes / g_t)
    activity_w = k.activity_base_w * x**k.volt_exp
    # Averaged over the launch.
    aux_w = k.aux_windows_w * t_product / t_launch
    # Steady-state die temperature rises roughly linearly with electrical
    # power and leakage rises superlinearly with temperature; the
    # quadratic term captures the composition.  Measured against a
    # cold-idle baseline this excess leakage is part of *dynamic* energy.
    electrical = compute_w + dram_w + activity_w + aux_w
    leakage_w = k.leak_quad * electrical * electrical / 100.0
    dynamic_w = compute_w + dram_w + activity_w + aux_w + leakage_w
    return (
        dynamic_w,
        t_product,
        t_launch,
        (compute_w, dram_w, activity_w, aux_w, leakage_w),
        (mem_cycles, per_block, t_pipe),
    )
