"""Tests for the literature EP metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.metrics import (
    hsu_poole_ep,
    idle_to_peak_ratio,
    ryckbosch_ep,
    wong_annavaram_pr,
)

U = np.linspace(0.0, 1.0, 21)


def ideal(u):
    """Perfectly proportional server: P = 200·u."""
    return 200.0 * u


def flat(u):
    """Worst case: peak power at all utilizations."""
    return np.full_like(np.asarray(u, dtype=float), 200.0)


def legacy(u):
    """A 2007-era server: 50% of peak at idle (Barroso & Hölzle)."""
    return 100.0 + 100.0 * np.asarray(u)


class TestRyckbosch:
    def test_ideal_scores_one(self):
        assert ryckbosch_ep(U, ideal(U)) == pytest.approx(1.0)

    def test_flat_scores_zero(self):
        assert ryckbosch_ep(U, flat(U)) == pytest.approx(0.0, abs=1e-9)

    def test_legacy_between(self):
        ep = ryckbosch_ep(U, legacy(U))
        assert 0.4 < ep < 0.8

    def test_unsorted_input_handled(self):
        order = np.random.default_rng(0).permutation(len(U))
        assert ryckbosch_ep(U[order], legacy(U)[order]) == pytest.approx(
            ryckbosch_ep(U, legacy(U))
        )


class TestWongAnnavaram:
    def test_pr_ideal_is_one(self):
        assert wong_annavaram_pr(U, ideal(U)) == pytest.approx(1.0)

    def test_pr_flat_is_zero(self):
        assert wong_annavaram_pr(U, flat(U)) == pytest.approx(0.0)

    def test_pr_legacy_half(self):
        assert wong_annavaram_pr(U, legacy(U)) == pytest.approx(0.5)


class TestHsuPoole:
    def test_ideal_scores_one(self):
        assert hsu_poole_ep(U, ideal(U)) == pytest.approx(1.0)

    def test_flat_scores_zero(self):
        assert hsu_poole_ep(U, flat(U)) == pytest.approx(0.0)

    def test_ordering_matches_intuition(self):
        assert (
            hsu_poole_ep(U, ideal(U))
            > hsu_poole_ep(U, legacy(U))
            > hsu_poole_ep(U, flat(U))
        )


class TestIdleToPeak:
    def test_values(self):
        assert idle_to_peak_ratio(U, legacy(U)) == pytest.approx(0.5)
        assert idle_to_peak_ratio(U, ideal(U)) == pytest.approx(0.0)
        assert idle_to_peak_ratio(U, flat(U)) == pytest.approx(1.0)


class TestValidation:
    @pytest.mark.parametrize(
        "fn",
        [ryckbosch_ep, wong_annavaram_pr, hsu_poole_ep, idle_to_peak_ratio],
    )
    def test_rejects_out_of_range_utilization(self, fn):
        with pytest.raises(ValueError):
            fn([0.0, 1.5], [10.0, 20.0])

    @pytest.mark.parametrize(
        "fn", [ryckbosch_ep, wong_annavaram_pr, hsu_poole_ep]
    )
    def test_rejects_single_sample(self, fn):
        with pytest.raises(ValueError):
            fn([0.5], [10.0])

    @pytest.mark.parametrize(
        "fn", [ryckbosch_ep, wong_annavaram_pr, hsu_poole_ep]
    )
    def test_rejects_negative_power(self, fn):
        with pytest.raises(ValueError):
            fn([0.0, 1.0], [-1.0, 10.0])

    def test_rejects_degenerate_range(self):
        with pytest.raises(ValueError):
            ryckbosch_ep([0.5, 0.5], [10.0, 10.0])


class TestProperties:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=150.0),
            min_size=3,
            max_size=20,
        )
    )
    def test_ryckbosch_at_most_one(self, extra):
        u = np.linspace(0, 1, len(extra))
        p = np.array(extra) + 50.0 * u + 1.0  # positive, increasing-ish peak
        if p[np.argsort(u)][-1] <= 0:
            return
        assert ryckbosch_ep(u, p) <= 1.0 + 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_pr_equals_one_minus_idle_ratio(self, idle_frac):
        p = 200.0 * idle_frac + (200.0 - 200.0 * idle_frac) * U
        if p[-1] <= 0:
            return
        assert wong_annavaram_pr(U, p) == pytest.approx(
            1.0 - idle_to_peak_ratio(U, p)
        )
