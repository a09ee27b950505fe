"""Calibration constants for the GPU simulators.

Every non-Table-I constant the GPU model uses lives here, with the
microarchitectural rationale.  Values are calibrated so that (a)
absolute times and powers land in the realistic range for the parts
(K40c naive blocked DGEMM ~300-400 GFLOPs at 150-200 W dynamic; P100
~1.5-2 TFLOPs at 150-225 W dynamic) and (b) the *shape* statistics of
the paper's figures hold (see DESIGN.md acceptance criteria).  The
calibration is checked by ``tests/test_experiments_shape.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.machines.specs import GPUSpec, K40C, P100

__all__ = ["GPUCalibration", "K40C_CAL", "P100_CAL", "calibration_for"]


@dataclass(frozen=True)
class GPUCalibration:
    """Tunable constants of the GPU timing/power model.

    Timing
    ------
    lsu_lanes:
        Shared-memory load lanes per SM per cycle.  The paper's kernel
        issues two shared loads per FMA, so the LSU pipe — not the DP
        units — bounds issue on both parts (32 lanes on Kepler in 8-byte
        mode and on Pascal).
    cpi:
        Overall cycles-per-issue fudge reflecting dependency stalls the
        pipeline model does not track (dual-issue limits, address math).
    replay_slope:
        Cost per extra shared-memory transaction when a warp spans
        several tile rows (replays): factor = 1 + slope·(avg_rows − 1).
    mem_latency_cycles:
        Global-memory latency per tile-load phase.
    l2_hit_cap:
        Upper bound on the modelled L2 hit fraction for tile re-loads.
    warps_to_saturate_bw:
        Resident warps per SM needed to reach peak DRAM bandwidth.
    launch_overhead_s:
        Host-side kernel launch latency (per launch, i.e. per R).
    icache_penalty:
        Fractional slowdown per extra textually repeated product code
        (instruction-cache pressure grows with G).

    Power
    -----
    e_lane_j:
        Energy per issued warp-lane slot (one FMA plus its two shared
        loads and register traffic), at the base clock.
    e_dram_j_per_byte:
        DRAM access energy (GDDR5 ≈ 20 pJ/bit; HBM2 ≈ 5 pJ/bit).
    p_act0_w / p_act1_w / occ_exp:
        Kernel-resident baseline power and its occupancy term: clock
        distribution, scheduler and register-file standby scale with
        resident warps, independent of retired instructions.  The
        occupancy enters as ``occ**occ_exp``: Kepler-class coarse clock
        gating is near-flat (exp 1 with a large base term); Pascal's
        fine-grained gating makes residency expensive superlinearly
        (exp > 1), which is the phenomenological fit for the large
        config-to-config dynamic-power spread the paper measures on the
        P100 (the paper itself leaves the mechanism to future work).
    leak_quad:
        Temperature-driven leakage excess, quadratic in electrical
        power: ``P_leak = leak_quad · P² / 100``.  Measured dynamic
        energy includes it because the idle baseline is taken cold.
    aux_power_w:
        The paper's energy-expensive auxiliary component: 58 W constant
        draw during inter-group windows for matrices below the
        additivity threshold (Section V.A).
    power_cap_w:
        Board power cap for the DVFS loop (= TDP).
    thermal_tau_s:
        Thermal time constant of the die/heatsink.  A kernel sequence
        much shorter than this runs the whole measurement in the cold
        boost window at full voltage (no throttling, high energy/op);
        sequences much longer heat-soak and settle at the power cap.
        This is what makes the P100's energy spread shrink with N.
    volt_exp:
        Exponent of core-clocked power in f (P ∝ f^volt_exp, capturing
        V²f scaling along the DVFS curve).
    time_jitter:
        1-sigma relative run-to-run execution-time variation (OS/driver
        noise), applied by the noisy-run API.
    """

    lsu_lanes: int
    cpi: float
    replay_slope: float
    mem_latency_cycles: float
    l2_hit_cap: float
    warps_to_saturate_bw: float
    launch_overhead_s: float
    icache_penalty: float
    e_lane_j: float
    e_dram_j_per_byte: float
    p_act0_w: float
    p_act1_w: float
    occ_exp: float
    leak_quad: float
    aux_power_w: float
    power_cap_w: float
    thermal_tau_s: float
    volt_exp: float
    time_jitter: float


#: Kepler GK110B.  No autoboost on the paper's cluster: the power cap
#: is never binding because the part runs at the base clock.
K40C_CAL = GPUCalibration(
    lsu_lanes=32,
    cpi=1.0,
    replay_slope=0.22,
    mem_latency_cycles=400.0,
    l2_hit_cap=0.5,
    warps_to_saturate_bw=16.0,
    launch_overhead_s=12e-6,
    icache_penalty=0.004,
    e_lane_j=350e-12,
    e_dram_j_per_byte=240e-12,
    p_act0_w=50.0,
    p_act1_w=50.0,
    occ_exp=1.0,
    leak_quad=0.05,
    aux_power_w=58.0,
    power_cap_w=235.0,
    thermal_tau_s=35.0,
    volt_exp=2.5,
    time_jitter=0.006,
)

#: Pascal GP100.  Autoboost to 1480 MHz with a 250 W board cap; the
#: DVFS loop throttles hot configurations, which is the mechanism
#: behind the multi-point global Pareto fronts of Figs. 2 and 8.
P100_CAL = GPUCalibration(
    lsu_lanes=32,
    cpi=1.5,
    replay_slope=0.04,
    mem_latency_cycles=600.0,
    l2_hit_cap=0.35,
    warps_to_saturate_bw=16.0,
    launch_overhead_s=10e-6,
    icache_penalty=0.004,
    e_lane_j=50e-12,
    e_dram_j_per_byte=60e-12,
    p_act0_w=50.0,
    p_act1_w=70.0,
    occ_exp=3.5,
    leak_quad=0.14,
    aux_power_w=58.0,
    power_cap_w=250.0,
    thermal_tau_s=40.0,
    volt_exp=2.5,
    time_jitter=0.005,
)

#: Keyed by spec *name*, not ``id(spec)``: an equal-but-distinct
#: GPUSpec (pickled, copied, or loaded from a registry file) must
#: resolve to the same calibration.
_BY_NAME = {K40C.name: K40C_CAL, P100.name: P100_CAL}


def calibration_for(spec: GPUSpec) -> GPUCalibration:
    """Default calibration for a known spec (built-in or registered).

    Resolution is by value, not identity: the in-code K40c/P100
    constants first, then the device registry
    (:func:`repro.devices.registry.default_registry`), in both cases
    checking that the looked-up spec equals ``spec`` field-for-field —
    a registered *name* with divergent constants must not silently pair
    with the registered calibration.

    Raises
    ------
    KeyError
        If no registered device matches; the message lists the
        registry's entries.
    """
    builtin = _BY_NAME.get(spec.name)
    if builtin is not None:
        return builtin
    # Lazy import: repro.devices imports this module at load time.
    from repro.devices.registry import default_registry
    from repro.devices.schema import DeviceError

    try:
        entry = default_registry().find(spec.name)
    except DeviceError:
        entry = None
    if entry is not None and entry.calibration is not None and entry.spec == spec:
        return entry.calibration
    raise KeyError(
        f"no default calibration for {spec.name!r}; pass one explicitly "
        f"or register the device (see repro.devices)"
    )
