"""Failure-injection tests: the measurement stack under a flaky meter.

The real WattsUp serial link occasionally drops lines and the meter
firmware sometimes repeats a reading.  The paper's protocol must stay
correct under these faults (the repetition protocol exists precisely to
absorb channel imperfections).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.measurement.hclwattsup import HCLWattsUp
from repro.measurement.powermeter import PowerMeter, PowerPhase, PowerTrace
from repro.measurement.stats import run_until_confident

IDLE = 110.0


def trace(duration, dynamic):
    return PowerTrace(phases=(PowerPhase(duration, IDLE + dynamic),))


class TestMeterFaults:
    def test_dropouts_hold_previous_reading(self):
        meter = PowerMeter(
            noise_fraction=0.0,
            quantization_w=0.0,
            dropout_probability=0.5,
            rng=np.random.default_rng(0),
        )
        t = PowerTrace(
            phases=(PowerPhase(10.0, 100.0), PowerPhase(10.0, 200.0))
        )
        samples = meter.sample_run(t)
        # Every reported value is one of the true plateau values (the
        # hold repeats earlier readings; it never invents values).
        assert all(s.power_w in (100.0, 200.0) for s in samples)

    def test_first_sample_always_real(self):
        meter = PowerMeter(
            noise_fraction=0.0,
            quantization_w=0.0,
            dropout_probability=0.9,
            rng=np.random.default_rng(1),
        )
        samples = meter.sample_run(trace(30.0, 42.0))
        assert samples[0].power_w == pytest.approx(IDLE + 42.0)

    def test_moderate_dropout_energy_still_unbiased(self):
        # Steady-state load: holding previous readings is harmless.
        meter = PowerMeter(
            dropout_probability=0.1, rng=np.random.default_rng(2)
        )
        t = trace(600.0, 80.0)
        measured = meter.measure_energy_j(t)
        assert measured == pytest.approx(t.true_energy_j(), rel=0.01)

    @pytest.mark.parametrize("field", ["dropout_probability", "stuck_probability"])
    def test_probability_validated(self, field):
        with pytest.raises(ValueError):
            PowerMeter(**{field: 1.0})
        with pytest.raises(ValueError):
            PowerMeter(**{field: -0.1})


class TestProtocolUnderFaults:
    def test_hclwattsup_converges_despite_flaky_meter(self):
        meter = PowerMeter(
            dropout_probability=0.15,
            stuck_probability=0.05,
            rng=np.random.default_rng(3),
        )
        tool = HCLWattsUp(meter, IDLE, baseline_seconds=120.0)
        rng = np.random.default_rng(4)
        true_dynamic = 90.0

        def dynamic_power():
            duration = float(rng.normal(60.0, 1.0))
            reading = tool.measure(trace(duration, true_dynamic))
            return reading.dynamic_energy_j / duration

        result = run_until_confident(dynamic_power, precision=0.025)
        assert result.converged
        # Energy per second recovers the true dynamic power.
        assert result.mean == pytest.approx(true_dynamic, rel=0.05)

    def test_faulty_channel_needs_no_more_than_max_runs(self):
        meter = PowerMeter(
            dropout_probability=0.3, rng=np.random.default_rng(5)
        )
        tool = HCLWattsUp(meter, IDLE, baseline_seconds=60.0)
        rng = np.random.default_rng(6)
        calls = 0

        def dynamic_energy():
            nonlocal calls
            calls += 1
            duration = float(rng.normal(20.0, 0.5))
            return tool.measure(trace(duration, 50.0)).dynamic_energy_j

        result = run_until_confident(dynamic_energy, max_runs=100)
        assert calls == result.n_runs <= 100
