"""End-to-end integration: simulator → power trace → meter →
HCLWattsUp → Student-t protocol → EP analysis.

This exercises the full measurement methodology of the paper on the
simulated platforms: the noisy measurement channel must converge to the
model's ground truth, and the downstream weak-EP/Pareto analysis run on
*measured* (noisy) data must agree with the analysis on ground truth.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.ep_analysis import weak_ep_study
from repro.core.pareto import ParetoPoint, pareto_front
from repro.measurement.hclwattsup import HCLWattsUp
from repro.measurement.powermeter import PowerMeter, PowerPhase, PowerTrace
from repro.measurement.stats import pearson_normality_check, run_until_confident
from repro.simgpu.device import GPUDevice

NODE_IDLE_W = 110.0


def gpu_trial_factory(device, n, bs, g, r, seed):
    """Build a paper-style trial: run kernel, meter the node, extract
    dynamic energy via HCLWattsUp."""
    rng = np.random.default_rng(seed)
    meter = PowerMeter(rng=np.random.default_rng(seed + 1))
    tool = HCLWattsUp(meter, NODE_IDLE_W, baseline_seconds=60.0)

    def trial():
        run = device.run_matmul(n, bs, g, r, rng=rng)
        trace = PowerTrace(
            phases=(
                PowerPhase(run.time_s, NODE_IDLE_W + run.dynamic_power_w),
            )
        )
        reading = tool.measure(trace)
        return run.time_s, reading.dynamic_energy_j

    return trial


def measure_point(trial, **protocol):
    """Repeat ``trial`` until its dynamic energy meets the protocol's
    precision; returns the mean time of the same runs and the energy
    result."""
    times = []

    def energy():
        time_s, energy_j = trial()
        times.append(time_s)
        return energy_j

    result = run_until_confident(energy, **protocol)
    return float(np.mean(times)), result


class TestMeasurementPipeline:
    def test_converges_to_model_truth(self, p100: GPUDevice):
        truth = p100.run_matmul(6144, 24, g=2, r=12)
        trial = gpu_trial_factory(p100, 6144, 24, 2, 12, seed=0)
        time_s, energy = measure_point(trial, precision=0.025)
        assert energy.converged
        assert time_s == pytest.approx(truth.time_s, rel=0.03)
        assert energy.mean == pytest.approx(truth.dynamic_energy_j, rel=0.04)

    def test_protocol_observations_look_normal(self, p100: GPUDevice):
        # The paper validates its normality assumption with Pearson χ²;
        # our jitter model is Gaussian, so the check must pass on a
        # large sample of times.
        rng = np.random.default_rng(3)
        times = np.array(
            [p100.run_matmul(4096, 16, rng=rng).time_s for _ in range(200)]
        )
        assert pearson_normality_check(times).consistent_with_normal

    def test_measured_front_matches_truth_front(self, p100: GPUDevice):
        """Sweep a small config subspace through the noisy pipeline;
        the measured Pareto front must match the ground-truth front."""
        n = 8192
        configs = [(32, 1, 24), (24, 3, 8), (27, 1, 24), (16, 2, 12),
                   (8, 1, 24), (28, 1, 24)]
        truth_points, measured_points = [], []
        for i, (bs, g, r) in enumerate(configs):
            run = p100.run_matmul(n, bs, g, r)
            truth_points.append(
                ParetoPoint(run.time_s, run.dynamic_energy_j, (bs, g, r))
            )
            trial = gpu_trial_factory(p100, n, bs, g, r, seed=100 + i)
            time_s, energy = measure_point(trial, precision=0.02)
            measured_points.append(
                ParetoPoint(time_s, energy.mean, (bs, g, r))
            )
        truth_front = {p.config for p in pareto_front(truth_points)}
        measured_front = {p.config for p in pareto_front(measured_points)}
        # Allow one borderline config to flip across the noise floor.
        assert len(truth_front.symmetric_difference(measured_front)) <= 2

    def test_weak_ep_verdict_robust_to_measurement_noise(
        self, p100: GPUDevice
    ):
        n = 8192
        measured = []
        for i, (bs, g, r) in enumerate([(32, 1, 24), (20, 2, 12), (12, 2, 12)]):
            trial = gpu_trial_factory(p100, n, bs, g, r, seed=200 + i)
            time_s, energy = measure_point(trial)
            measured.append(ParetoPoint(time_s, energy.mean, {"bs": bs}))
        study = weak_ep_study("p100", n, measured)
        assert not study.weak_ep.holds  # violation survives the channel


class TestCPUPipeline:
    def test_cpu_run_through_meter(self, haswell_cpu):
        from repro.simcpu.processor import DGEMMConfig

        rng = np.random.default_rng(7)
        meter = PowerMeter(rng=np.random.default_rng(8))
        tool = HCLWattsUp(meter, NODE_IDLE_W)

        def dynamic_energy():
            r = haswell_cpu.run_dgemm(8192, DGEMMConfig("row", 2, 12), rng=rng)
            trace = PowerTrace(
                phases=(
                    PowerPhase(r.time_s, NODE_IDLE_W + r.power.dynamic_w),
                )
            )
            return tool.measure(trace).dynamic_energy_j

        truth = haswell_cpu.run_dgemm(8192, DGEMMConfig("row", 2, 12))
        energy = run_until_confident(dynamic_energy)
        assert energy.converged
        assert energy.mean == pytest.approx(truth.dynamic_energy_j, rel=0.05)
