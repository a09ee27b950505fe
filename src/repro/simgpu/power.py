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
"""

from __future__ import annotations

from typing import NamedTuple

from repro.machines.specs import GPUSpec
from repro.simgpu.calibration import GPUCalibration

__all__ = [
    "PowerBreakdown",
    "aux_decay",
    "kernel_power",
    "kernel_power_terms",
    "power_components",
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


def kernel_power_terms(
    spec: GPUSpec, cal: GPUCalibration, *, occupancy: float, n: int, g: int
) -> tuple[float, float]:
    """The clock-independent power terms of one launch.

    Returns ``(activity_base_w, aux_windows_w)``: the activity floor
    before clock scaling, ``a0 + a1·ω^k``, and the auxiliary draw summed
    over the (G-1) inter-group windows, ``58 W · decay(N) · (G-1)``.
    Both are the same at every clock, so a DVFS solve computes them
    once and hands them to :func:`power_components` at each probe.
    """
    if not (0.0 < occupancy <= 1.0):
        raise ValueError("occupancy must be in (0, 1]")
    # Activity power is superlinear in occupancy on parts with
    # fine-grained clock gating (occ_exp > 1: near-zero draw at low
    # residency, steep near full residency); Kepler-class coarse gating
    # is occ_exp = 1 with a large base term.
    activity_base_w = cal.p_act0_w + cal.p_act1_w * occupancy**cal.occ_exp
    # The auxiliary component draws aux_power_w during the (G-1)
    # inter-group windows, each lasting one product time.
    aux_windows_w = cal.aux_power_w * aux_decay(spec, n) * (g - 1)
    return activity_base_w, aux_windows_w


def power_components(
    spec: GPUSpec,
    cal: GPUCalibration,
    clock_hz: float,
    lane_rate_per_s: float,
    dram_bytes_per_s: float,
    activity_base_w: float,
    aux_windows_w: float,
    product_time_s: float,
    active_time_s: float,
) -> tuple[float, float, float, float, float]:
    """``(compute, dram, activity, aux, leakage)`` watts at one clock.

    The one copy of the component formula: :func:`kernel_power` and
    every clock probe of :meth:`repro.simgpu.device.GPUDevice.run_matmul`
    evaluate power through it.  The two clock-independent terms come
    from :func:`kernel_power_terms`.
    """
    if active_time_s <= 0 or product_time_s <= 0:
        raise ValueError("times must be positive")
    x = clock_hz / spec.base_clock_hz
    compute = cal.e_lane_j * x ** (cal.volt_exp - 1.0) * lane_rate_per_s
    dram = cal.e_dram_j_per_byte * dram_bytes_per_s
    activity = activity_base_w * x**cal.volt_exp
    # Averaged over the launch.
    aux = aux_windows_w * product_time_s / active_time_s
    # Steady-state die temperature rises roughly linearly with electrical
    # power and leakage rises superlinearly with temperature; the
    # quadratic term captures the composition.  Measured against a
    # cold-idle baseline this excess leakage is part of *dynamic* energy.
    electrical = compute + dram + activity + aux
    leakage = cal.leak_quad * electrical * electrical / 100.0
    return compute, dram, activity, aux, leakage


def kernel_power(
    spec: GPUSpec,
    cal: GPUCalibration,
    *,
    lane_rate_per_s: float,
    dram_bytes_per_s: float,
    occupancy: float,
    n: int,
    g: int,
    product_time_s: float,
    active_time_s: float,
    clock_hz: float,
) -> PowerBreakdown:
    """Average dynamic power over one kernel launch.

    ``lane_rate_per_s`` and ``dram_bytes_per_s`` are launch-average
    rates at the operating clock; ``product_time_s`` is the duration of
    one product inside the launch and ``active_time_s`` the whole
    launch duration (= G·product time plus overheads).
    """
    activity_base_w, aux_windows_w = kernel_power_terms(
        spec, cal, occupancy=occupancy, n=n, g=g
    )
    return PowerBreakdown(
        *power_components(
            spec,
            cal,
            clock_hz,
            lane_rate_per_s,
            dram_bytes_per_s,
            activity_base_w,
            aux_windows_w,
            product_time_s,
            active_time_s,
        )
    )
