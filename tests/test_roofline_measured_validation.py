"""Tests for roofline diagnostics and energy-model validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.energymodel.events import ApplicationProfile
from repro.energymodel.validation import loocv
from repro.machines import K40C, P100
from repro.simgpu.roofline import classify_matmul


class TestRoofline:
    def test_large_tiles_issue_bound(self):
        """The band the paper's fronts live in is issue-bound — BS=32
        wins by shedding shared-memory replays, not bandwidth."""
        for bs in (16, 24, 32):
            assert classify_matmul(P100, 10240, bs).bound == "issue"

    def test_tiny_tiles_memory_side(self):
        for bs in (2, 4, 8):
            assert classify_matmul(P100, 10240, bs).bound in (
                "latency", "bandwidth",
            )

    def test_arithmetic_intensity_formula(self):
        p = classify_matmul(P100, 4096, 32)
        # AI grows ~linearly with BS (traffic ∝ 1/BS).
        p8 = classify_matmul(P100, 4096, 8)
        assert p.arithmetic_intensity > 3 * p8.arithmetic_intensity

    def test_ridge_point_from_spec(self):
        p = classify_matmul(K40C, 4096, 16)
        assert p.ridge_intensity == pytest.approx(
            K40C.peak_dp_flops / K40C.mem_bandwidth_bps
        )

    def test_classical_verdict_exposed(self):
        p = classify_matmul(P100, 10240, 32)
        assert p.classically_compute_bound == (
            p.arithmetic_intensity >= p.ridge_intensity
        )


def _profiles(rng, n, noise=0.02):
    out = []
    for i in range(n):
        a = float(rng.uniform(1e10, 1e12))
        b = float(rng.uniform(1e8, 1e10))
        e = (20e-12 * a + 90e-12 * b) * (1 + noise * rng.standard_normal())
        out.append(ApplicationProfile(f"p{i}", {"a": a, "b": b}, e, 1.0))
    return out


class TestValidation:
    def test_loocv_on_clean_data(self):
        rng = np.random.default_rng(0)
        result = loocv(_profiles(rng, 12, noise=0.0), ["a", "b"])
        assert result.n_folds == 12
        assert result.max_error < 1e-6

    def test_loocv_error_tracks_noise(self):
        rng = np.random.default_rng(1)
        quiet = loocv(_profiles(rng, 20, noise=0.01), ["a", "b"])
        loud = loocv(_profiles(rng, 20, noise=0.10), ["a", "b"])
        assert loud.mean_error > quiet.mean_error

    def test_loocv_needs_enough_profiles(self):
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            loocv(_profiles(rng, 2), ["a", "b"])
