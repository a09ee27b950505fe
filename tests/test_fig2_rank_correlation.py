"""Fig. 2's NumPy Spearman correlation against scipy.stats.spearmanr."""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import rankdata, spearmanr

from repro.experiments import fig2_p100_n18432 as fig2


def _scipy_rho(x: np.ndarray, y: np.ndarray) -> float:
    return float(spearmanr(x, y).statistic)


def test_exact_on_fig2_low_bs_region():
    result = fig2.run()
    low = result.table[result.table["bs"] <= 20]
    assert result.low_bs_rank_correlation == _scipy_rho(
        low["time_s"], low["energy_j"]
    )


def _max_deviation(draw, cases: int = 200) -> float:
    """Largest |NumPy - scipy| over ``cases`` seeded draws of ``(x, y)``."""
    rng = np.random.default_rng(2022)
    worst = 0.0
    for _ in range(cases):
        x, y = draw(rng, int(rng.integers(10, 300)))
        ours = fig2._rank_correlation_cols(x, y)
        worst = max(worst, abs(ours - _scipy_rho(x, y)))
    return worst


def test_continuous_inputs():
    def draw(rng, n):
        x = rng.normal(size=n)
        return x, x + rng.normal(scale=2.0, size=n)

    assert _max_deviation(draw) <= 1e-12


def test_inputs_with_many_ties():
    def draw(rng, n):
        x = rng.integers(0, 5, n).astype(float)
        return x, rng.integers(0, 3, n) + 0.5 * x

    assert _max_deviation(draw) <= 1e-12


def test_average_ranks_match_rankdata():
    rng = np.random.default_rng(7)
    x = rng.integers(0, 20, 500).astype(float)
    np.testing.assert_array_equal(fig2._average_ranks(x), rankdata(x))


def test_nan_or_constant_input_gives_nan():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    assert math.isnan(fig2._rank_correlation_cols(np.full(4, 2.0), x))
    assert math.isnan(
        fig2._rank_correlation_cols(np.array([1.0, np.nan, 2.0, 3.0]), x)
    )
