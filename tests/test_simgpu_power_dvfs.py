"""Tests for the GPU power model and the DVFS solver."""

from __future__ import annotations

import math

import pytest

from repro.machines import K40C, P100
from repro.simgpu.calibration import calibration_for
from repro.simgpu.dvfs import MIN_CLOCK_FRACTION, solve_operating_clock
from repro.simgpu.device import _KernelTerms
from repro.simgpu.kernel import matmul_kernel_resources
from repro.simgpu.occupancy import compute_occupancy
from repro.simgpu.power import (
    PowerBreakdown,
    aux_decay,
    clock_free_terms,
    probe,
    scalar_max,
)


class TestAuxDecay:
    def test_full_strength_small_n(self):
        assert aux_decay(P100, 1024) == pytest.approx(1.0, abs=0.01)

    def test_zero_at_threshold(self):
        assert aux_decay(P100, P100.additivity_threshold_n) == 0.0
        assert aux_decay(K40C, K40C.additivity_threshold_n) == 0.0

    def test_zero_beyond_threshold(self):
        assert aux_decay(P100, 20000) == 0.0

    def test_monotone_decreasing(self):
        values = [aux_decay(P100, n) for n in range(1024, 16384, 512)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_device_thresholds_differ(self):
        # At N=12288: past the K40c threshold, inside the P100's.
        assert aux_decay(K40C, 12288) == 0.0
        assert aux_decay(P100, 12288) > 0.0

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            aux_decay(P100, 0)


def kernel_terms(spec, n=8192, bs=32, g=1, **fields):
    """The ``_KernelTerms`` of a real ``(n, bs, g)`` launch, with
    ``fields`` set over the computed ones."""
    cal = calibration_for(spec)
    res = matmul_kernel_resources(spec, cal, n, bs, g)
    occ = compute_occupancy(spec, res.threads_per_block, res.smem_per_block_bytes)
    terms = _KernelTerms(spec, cal, res, occ)
    for name, value in fields.items():
        setattr(terms, name, value)
    return terms


def probed(terms, clock_hz=None):
    """``(PowerBreakdown, dynamic_w, t_product, t_launch)`` of one probe,
    at the base clock unless ``clock_hz`` is given."""
    if clock_hz is None:
        clock_hz = terms.base_clock_hz
    dynamic_w, t_product, t_launch, components, _ = probe(
        terms, clock_hz, scalar_max
    )
    return PowerBreakdown(*components), dynamic_w, t_product, t_launch


def activity_base(spec, occupancy):
    """The activity floor ``a0 + a1·ω^k`` at one occupancy."""
    return clock_free_terms(
        spec, calibration_for(spec), grid_blocks=1, ksteps=1, dram_bytes=1.0,
        g=1, active_warps=1, occupancy=occupancy, decay=0.0,
        ceil=math.ceil, minimum=min,
    )[2]


class TestProbePower:
    """The component power formula of :func:`repro.simgpu.power.probe`."""

    def test_components_sum_to_dynamic_power(self):
        for spec in (K40C, P100):
            power, dynamic_w, _, _ = probed(kernel_terms(spec, g=2, n=5120))
            assert dynamic_w == (
                power.compute_w + power.dram_w + power.activity_w
                + power.aux_w + power.leakage_w
            )
            assert dynamic_w == power.dynamic_w

    def test_compute_doubles_with_lanes_issued(self):
        terms = kernel_terms(P100)
        lo = probed(terms)[0]
        hi = probed(kernel_terms(P100, lanes_issued=2 * terms.lanes_issued))[0]
        assert hi.compute_w == pytest.approx(2 * lo.compute_w)
        assert hi.dram_w == lo.dram_w

    def test_aux_zero_for_g1(self):
        assert probed(kernel_terms(P100, n=5120, g=1))[0].aux_w == 0.0

    def test_aux_window_accounting(self):
        spec, cal = P100, calibration_for(P100)
        terms = kernel_terms(spec, n=5120, bs=16, g=4)
        power, _, t_product, t_launch = probed(terms)
        kaux = cal.aux_power_w * aux_decay(spec, 5120) * 3
        assert power.aux_w > 0.0
        assert power.aux_w == pytest.approx(kaux * t_product / t_launch)

    def test_aux_vanishes_beyond_threshold(self):
        assert probed(kernel_terms(P100, n=16000, bs=16, g=4))[0].aux_w == 0.0

    def test_activity_superlinear_on_p100(self):
        # Pascal occ_exp > 1: half occupancy costs far less than half.
        cal = calibration_for(P100)
        full, half = activity_base(P100, 1.0), activity_base(P100, 0.5)
        assert half - cal.p_act0_w < 0.5 * (full - cal.p_act0_w)

    def test_activity_linear_on_k40c(self):
        cal = calibration_for(K40C)
        full, half = activity_base(K40C, 1.0), activity_base(K40C, 0.5)
        assert full - half == pytest.approx(0.5 * cal.p_act1_w)

    def test_leakage_quadratic_in_electrical_power(self):
        terms = kernel_terms(P100)
        lo = probed(terms)[0]
        hi = probed(kernel_terms(P100, lanes_issued=4 * terms.lanes_issued))[0]

        def electrical(p):
            return p.compute_w + p.dram_w + p.activity_w + p.aux_w

        assert hi.leakage_w / lo.leakage_w == pytest.approx(
            (electrical(hi) / electrical(lo)) ** 2, rel=1e-12
        )

    def test_clock_scaling_exponent(self):
        # DRAM-bound (t_dram above the pipeline time at both clocks), so
        # the product time, and with it every rate, stays put.
        spec, cal = P100, calibration_for(P100)
        terms = kernel_terms(spec, t_dram=1.0)
        base, _, t_base, _ = probed(terms, spec.base_clock_hz)
        boosted, _, t_boost, _ = probed(terms, 1.1 * spec.base_clock_hz)
        assert t_base == t_boost == 1.0
        assert boosted.activity_w / base.activity_w == pytest.approx(
            1.1**cal.volt_exp
        )
        assert boosted.compute_w / base.compute_w == pytest.approx(
            1.1 ** (cal.volt_exp - 1.0)
        )
        assert boosted.dram_w == base.dram_w


class TestDVFSSolver:
    def test_no_autoboost_runs_at_base(self):
        cal = calibration_for(K40C)
        op = solve_operating_clock(K40C, cal, lambda f: 200.0)
        assert op.clock_hz == K40C.base_clock_hz
        assert not op.throttled

    def test_cool_kernel_runs_at_boost(self):
        cal = calibration_for(P100)
        op = solve_operating_clock(P100, cal, lambda f: 150.0)
        assert op.clock_hz == P100.boost_clock_hz
        assert not op.throttled

    def test_hot_kernel_lands_on_cap(self):
        cal = calibration_for(P100)

        def power(f):
            return 400.0 * (f / P100.boost_clock_hz) ** 2.5

        op = solve_operating_clock(P100, cal, power)
        assert op.throttled
        assert op.board_power_w == pytest.approx(cal.power_cap_w, abs=0.5)
        assert op.clock_hz < P100.boost_clock_hz

    def test_pathological_kernel_clamped_to_floor(self):
        cal = calibration_for(P100)
        op = solve_operating_clock(P100, cal, lambda f: 1000.0)
        assert op.throttled
        assert op.clock_hz == pytest.approx(
            MIN_CLOCK_FRACTION * P100.base_clock_hz
        )
