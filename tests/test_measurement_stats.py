"""Tests for the Student-t repetition protocol and χ² normality check."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy import stats as sps

from repro.measurement.stats import (
    confidence_halfwidth,
    pearson_normality_check,
    run_until_confident,
)


class TestConfidenceHalfwidth:
    def test_matches_scipy_interval(self):
        rng = np.random.default_rng(1)
        obs = rng.normal(100.0, 5.0, 30)
        hw = confidence_halfwidth(obs, 0.95)
        lo, hi = sps.t.interval(
            0.95, df=len(obs) - 1, loc=obs.mean(), scale=sps.sem(obs)
        )
        assert hw == pytest.approx((hi - lo) / 2.0)

    def test_zero_variance_gives_zero(self):
        assert confidence_halfwidth(np.array([5.0, 5.0, 5.0])) == 0.0

    def test_shrinks_with_sample_size(self):
        rng = np.random.default_rng(2)
        obs = rng.normal(100.0, 5.0, 200)
        assert confidence_halfwidth(obs[:100]) < confidence_halfwidth(obs[:10])

    def test_grows_with_confidence(self):
        rng = np.random.default_rng(3)
        obs = rng.normal(100.0, 5.0, 20)
        assert confidence_halfwidth(obs, 0.99) > confidence_halfwidth(obs, 0.9)

    def test_needs_two_observations(self):
        with pytest.raises(ValueError):
            confidence_halfwidth(np.array([1.0]))

    def test_confidence_range_validated(self):
        with pytest.raises(ValueError):
            confidence_halfwidth(np.array([1.0, 2.0]), confidence=1.0)


class TestRunUntilConfident:
    def test_noiseless_converges_at_min_runs(self):
        result = run_until_confident(lambda: 42.0, min_runs=5)
        assert result.converged
        assert result.n_runs == 5
        assert result.mean == pytest.approx(42.0)

    def test_noisy_converges_to_true_mean(self):
        rng = np.random.default_rng(4)
        result = run_until_confident(
            lambda: float(rng.normal(100.0, 5.0)), precision=0.025
        )
        assert result.converged
        assert result.relative_precision <= 0.025
        assert abs(result.mean - 100.0) / 100.0 < 0.05

    def test_noisier_channel_needs_more_runs(self):
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        quiet = run_until_confident(lambda: float(rng1.normal(100, 1.0)))
        loud = run_until_confident(lambda: float(rng2.normal(100, 12.0)))
        assert loud.n_runs > quiet.n_runs

    def test_max_runs_bounds_nonconvergence(self):
        rng = np.random.default_rng(6)
        result = run_until_confident(
            lambda: float(rng.lognormal(0, 2.0)),
            precision=0.001,
            max_runs=30,
        )
        assert not result.converged
        assert result.n_runs == 30

    def test_observations_recorded(self):
        result = run_until_confident(lambda: 7.0, min_runs=4)
        assert result.observations == (7.0,) * 4

    @pytest.mark.parametrize(
        "bad", [0.0, -1.0, float("nan"), float("inf"), float("-inf")]
    )
    def test_invalid_measurement_rejected(self, bad):
        with pytest.raises(ValueError, match="invalid"):
            run_until_confident(lambda: bad)

    def test_invalid_value_raises_before_any_averaging(self):
        """A bad observation on run k aborts; no result is produced."""
        series = iter([1.0, 1.0, math.nan])
        with pytest.raises(ValueError):
            run_until_confident(lambda: next(series), min_runs=5)

    def test_measure_called_once_per_run(self):
        rng = np.random.default_rng(12)
        calls = 0

        def measure():
            nonlocal calls
            calls += 1
            return float(rng.normal(100.0, 8.0))

        result = run_until_confident(measure)
        assert calls == result.n_runs == len(result.observations)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"precision": 0.0},
            {"precision": 1.0},
            {"min_runs": 1},
            {"min_runs": 10, "max_runs": 5},
        ],
    )
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            run_until_confident(lambda: 1.0, **kwargs)


class TestMaxRunsBound:
    """The ``max_runs`` bound is hard, including the degenerate
    ``min_runs == max_runs`` parameterization."""

    def test_nonconvergence_at_max_runs_sets_flag(self):
        noisy = itertools.cycle([1.0, 5.0, 0.2])
        result = run_until_confident(
            lambda: next(noisy), min_runs=2, max_runs=7
        )
        assert not result.converged
        assert result.n_runs == 7
        assert result.relative_precision > 0.025

    def test_min_equals_max_never_loops_past_bound(self):
        calls = 0
        noisy = itertools.cycle([1.0, 9.0])

        def measure():
            nonlocal calls
            calls += 1
            return next(noisy)

        result = run_until_confident(measure, min_runs=6, max_runs=6)
        assert calls == 6
        assert result.n_runs == 6
        assert not result.converged

    def test_min_equals_max_still_detects_convergence(self):
        calls = 0

        def measure():
            nonlocal calls
            calls += 1
            return 3.0

        result = run_until_confident(measure, min_runs=4, max_runs=4)
        assert calls == 4
        assert result.converged
        assert result.n_runs == 4
        assert result.mean == 3.0

    @pytest.mark.parametrize(
        "min_runs,max_runs", [(2, 2), (2, 5), (5, 5), (3, 10)]
    )
    def test_trial_count_never_exceeds_max_runs(self, min_runs, max_runs):
        calls = 0
        noisy = itertools.cycle([5.0, 500.0])

        def measure():
            nonlocal calls
            calls += 1
            return next(noisy)

        result = run_until_confident(
            measure, min_runs=min_runs, max_runs=max_runs
        )
        assert calls == result.n_runs <= max_runs
        assert not result.converged


class TestPearsonNormality:
    def test_accepts_normal_sample(self):
        rng = np.random.default_rng(7)
        check = pearson_normality_check(rng.normal(10.0, 2.0, 500))
        assert check.consistent_with_normal
        assert check.p_value > 0.05

    def test_rejects_exponential_sample(self):
        rng = np.random.default_rng(8)
        check = pearson_normality_check(rng.exponential(1.0, 500))
        assert not check.consistent_with_normal

    def test_rejects_bimodal_sample(self):
        rng = np.random.default_rng(9)
        sample = np.concatenate(
            [rng.normal(0, 0.5, 250), rng.normal(10, 0.5, 250)]
        )
        assert not pearson_normality_check(sample).consistent_with_normal

    def test_dof_accounts_for_estimated_parameters(self):
        rng = np.random.default_rng(10)
        check = pearson_normality_check(rng.normal(0, 1, 100), n_bins=8)
        assert check.dof == 8 - 1 - 2

    def test_needs_enough_observations(self):
        with pytest.raises(ValueError):
            pearson_normality_check(np.arange(10.0))

    def test_rejects_zero_variance(self):
        with pytest.raises(ValueError):
            pearson_normality_check(np.full(50, 3.0))

    def test_too_few_bins_rejected(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError):
            pearson_normality_check(rng.normal(0, 1, 100), n_bins=3)
