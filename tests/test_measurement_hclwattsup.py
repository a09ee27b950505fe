"""Tests for the HCLWattsUp-style energy extraction layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.measurement.hclwattsup import HCLWattsUp
from repro.measurement.powermeter import PowerMeter, PowerPhase, PowerTrace

IDLE = 110.0


def make(noise=0.0, seed=0, baseline_seconds=60.0):
    meter = PowerMeter(
        noise_fraction=noise,
        quantization_w=0.0 if noise == 0.0 else 0.1,
        rng=np.random.default_rng(seed),
    )
    return HCLWattsUp(meter, IDLE, baseline_seconds=baseline_seconds)


def run_trace(duration, dynamic_w):
    return PowerTrace(phases=(PowerPhase(duration, IDLE + dynamic_w),))


class TestBaseline:
    def test_noiseless_baseline_exact(self):
        assert make().baseline_power_w == pytest.approx(IDLE)

    def test_baseline_cached(self):
        tool = make(noise=0.01, seed=3)
        assert tool.baseline_power_w == tool.baseline_power_w

    def test_short_baseline_rejected(self):
        with pytest.raises(ValueError):
            HCLWattsUp(PowerMeter(), IDLE, baseline_seconds=1.0)

    def test_negative_idle_rejected(self):
        with pytest.raises(ValueError):
            HCLWattsUp(PowerMeter(), -5.0)


class TestEnergyExtraction:
    def test_noiseless_decomposition_exact(self):
        tool = make()
        reading = tool.measure(run_trace(100.0, 80.0))
        assert reading.total_energy_j == pytest.approx(100.0 * (IDLE + 80.0))
        assert reading.static_energy_j == pytest.approx(100.0 * IDLE)
        assert reading.dynamic_energy_j == pytest.approx(100.0 * 80.0)

    def test_noisy_decomposition_converges(self):
        tool = make(noise=0.005, seed=5)
        reading = tool.measure(run_trace(600.0, 90.0))
        assert reading.dynamic_energy_j == pytest.approx(600.0 * 90.0, rel=0.02)

    def test_zero_dynamic_clamped_not_negative(self):
        tool = make(noise=0.01, seed=6)
        reading = tool.measure(run_trace(30.0, 0.0))
        assert reading.dynamic_energy_j >= 0.0

    def test_short_run_padding_not_counted(self):
        # A 0.4 s run: the meter pads to 2 samples, but only 0.4 s of
        # window may contribute energy.
        tool = make()
        reading = tool.measure(run_trace(0.4, 50.0))
        assert reading.total_energy_j == pytest.approx(0.4 * (IDLE + 50.0))

    def test_multi_phase_trace(self):
        tool = make()
        t = PowerTrace(
            phases=(
                PowerPhase(10.0, IDLE + 40.0),
                PowerPhase(20.0, IDLE + 100.0),
            )
        )
        reading = tool.measure(t)
        assert reading.dynamic_energy_j == pytest.approx(
            10.0 * 40.0 + 20.0 * 100.0
        )

    def test_duration_reported(self):
        reading = make().measure(run_trace(42.0, 10.0))
        assert reading.duration_s == pytest.approx(42.0)
