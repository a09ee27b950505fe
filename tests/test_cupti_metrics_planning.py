"""Tests for CUPTI derived metrics and measurement-campaign planning."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as sps

from repro.machines import P100
from repro.measurement.stats import (
    confidence_halfwidth,
    required_runs_estimate,
)
from repro.simgpu import CuptiProfiler, calibration_for


@pytest.fixture(scope="module")
def profiler():
    return CuptiProfiler(P100, calibration_for(P100))


class TestDerivedMetrics:
    def test_sound_metrics_at_small_n(self, profiler):
        m = profiler.metrics(1024, 32)
        assert 0.0 < m["flop_dp_efficiency"] <= 1.0
        assert 0.0 < m["ipc"] < 64.0
        assert 0.0 < m["gld_efficiency"] <= 1.0
        assert m["dram_read_throughput"] > 0.0

    def test_bs32_perfect_gld_efficiency(self, profiler):
        # Fully coalesced rows: useful == fetched.
        assert profiler.metrics(1024, 32)["gld_efficiency"] == pytest.approx(
            1.0, abs=0.01
        )

    def test_small_tiles_poor_gld_efficiency(self, profiler):
        # BS=2 rows are 16 B of a 32 B sector.
        m = profiler.metrics(512, 2)
        assert m["gld_efficiency"] < 0.8

    def test_metrics_garbage_after_overflow(self, profiler):
        """The paper: 'events and metrics ... reported inaccurate
        counts'.  Derived metrics silently go wrong at large N."""
        sound = profiler.metrics(1024, 32)
        wrapped = profiler.metrics(8192, 32)
        # flop efficiency collapses because flop_count_dp wrapped.
        assert wrapped["flop_dp_efficiency"] < 0.1 * sound["flop_dp_efficiency"]

    def test_efficiency_tracks_tile_quality(self, profiler):
        eff32 = profiler.metrics(1024, 32)["flop_dp_efficiency"]
        eff8 = profiler.metrics(1024, 8)["flop_dp_efficiency"]
        assert eff32 > eff8


def _brute_force_runs(
    pilot: np.ndarray, precision: float = 0.025, confidence: float = 0.95
) -> int:
    """Smallest n in [2, 1e5] with t_{n-1} * cv / sqrt(n) <= precision."""
    cv = float(pilot.std(ddof=1)) / float(pilot.mean())
    ns = np.arange(2, 100001)
    lhs = sps.t.ppf(0.5 + confidence / 2.0, ns - 1) * cv / np.sqrt(ns)
    ok = np.flatnonzero(lhs <= precision)
    assert ok.size, "brute-force limit too small"
    return int(ns[ok[0]])


class TestRequiredRuns:
    def test_quiet_pilot_needs_few_runs(self):
        rng = np.random.default_rng(0)
        pilot = rng.normal(100.0, 0.5, 10)  # CV 0.5%
        assert required_runs_estimate(pilot) <= 5

    def test_noisy_pilot_needs_many(self):
        rng = np.random.default_rng(1)
        pilot = rng.normal(100.0, 10.0, 10)
        assert required_runs_estimate(pilot) == _brute_force_runs(pilot)

    @pytest.mark.parametrize(
        ("cv", "precision", "confidence"),
        [
            (0.005, 0.025, 0.95),
            (0.03, 0.025, 0.95),
            (0.1, 0.025, 0.95),
            (0.1, 0.01, 0.99),
            (0.3, 0.05, 0.90),
            (1.0, 0.025, 0.95),
        ],
    )
    def test_matches_brute_force_search(self, cv, precision, confidence):
        """The estimate is the smallest sufficient n, not an overshoot."""
        rng = np.random.default_rng(5)
        for _ in range(3):
            pilot = 100.0 + rng.normal(0.0, 100.0 * cv, 8)
            n = required_runs_estimate(
                pilot, precision=precision, confidence=confidence
            )
            assert n == _brute_force_runs(pilot, precision, confidence)

    def test_estimate_is_sufficient(self):
        """A sample of the predicted size actually meets the precision
        (in expectation; checked on a fixed seed)."""
        rng = np.random.default_rng(2)
        cv = 0.08
        pilot = rng.normal(100.0, 100.0 * cv, 12)
        n = required_runs_estimate(pilot, precision=0.025)
        sample = rng.normal(100.0, 100.0 * cv, n)
        hw = confidence_halfwidth(sample)
        assert hw / sample.mean() <= 0.035  # near the target

    def test_zero_variance_pilot(self):
        assert required_runs_estimate(np.full(5, 10.0)) == 2

    def test_monotone_in_precision(self):
        rng = np.random.default_rng(3)
        pilot = rng.normal(100.0, 5.0, 10)
        loose = required_runs_estimate(pilot, precision=0.05)
        tight = required_runs_estimate(pilot, precision=0.01)
        assert tight > loose

    def test_validation(self):
        with pytest.raises(ValueError):
            required_runs_estimate(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            required_runs_estimate(np.array([1.0, 2.0, 3.0]), precision=0.0)
        with pytest.raises(ValueError, match="confidence"):
            required_runs_estimate(np.array([1.0, 2.0, 3.0]), confidence=1.0)
        with pytest.raises(ValueError, match="finite"):
            required_runs_estimate(np.array([1.0, np.nan, 3.0]))
        with pytest.raises(ValueError, match="more than"):
            rng = np.random.default_rng(4)
            required_runs_estimate(
                rng.normal(100, 90, 10), precision=0.001, max_runs=50
            )
