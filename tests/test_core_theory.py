"""Tests for the Section III core-imbalance theory."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.theory import NCoreModel, TwoCoreModel

util = st.floats(min_value=0.05, max_value=0.95)


class TestTwoCoreModel:
    def test_equation_1_balanced(self):
        m = TwoCoreModel(a=2.0, b=3.0)
        # E1 = 2ab regardless of U.
        for u in (0.2, 0.5, 0.9):
            assert m.e1_balanced(u) == pytest.approx(12.0)

    def test_equation_2_closed_form(self):
        m = TwoCoreModel(a=2.0, b=3.0)
        u, d = 0.5, 0.2
        expected = 2.0 * 3.0 * (u + d) / u + 2.0 * 3.0
        assert m.e2_one_raised(u, d) == pytest.approx(expected)

    def test_equation_3_closed_form(self):
        m = TwoCoreModel(a=2.0, b=3.0)
        u, d = 0.5, 0.2
        expected = 2.0 * 3.0 * (1.0 + (u + d) / (u - d))
        assert m.e3_raised_and_lowered(u, d) == pytest.approx(expected)

    @given(util, st.floats(min_value=0.01, max_value=0.5))
    def test_paper_inequality_chain(self, u, delta):
        """The paper's central result: E3 > E2 > E1 for any imbalance."""
        if u + delta > 1.0 or delta >= u:
            return
        m = TwoCoreModel(a=1.7, b=2.3)
        e1, e2, e3 = m.inequality_chain(u, delta)
        assert e3 > e2 > e1

    def test_e2_performance_unchanged(self):
        # Raising one core's utilization does not change execution time
        # (the slower core dictates), yet energy increases.
        m = TwoCoreModel(a=1.0, b=1.0)
        assert m.execution_time(0.7, 0.5) == m.execution_time(0.5, 0.5)
        assert m.dynamic_energy(0.7, 0.5) > m.dynamic_energy(0.5, 0.5)

    def test_e3_performance_decreases(self):
        # Raising one and lowering the other slows the application down
        # (average utilization unchanged) and costs more energy.
        m = TwoCoreModel(a=1.0, b=1.0)
        assert m.execution_time(0.7, 0.3) > m.execution_time(0.5, 0.5)
        assert m.dynamic_energy(0.7, 0.3) > m.dynamic_energy(0.5, 0.5)

    def test_symmetry(self):
        m = TwoCoreModel(a=1.0, b=1.0)
        assert m.dynamic_energy(0.3, 0.8) == pytest.approx(
            m.dynamic_energy(0.8, 0.3)
        )

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_invalid_constants(self, a, b):
        with pytest.raises(ValueError):
            TwoCoreModel(a=a, b=b)

    @pytest.mark.parametrize("u", [0.0, -0.5, 1.5])
    def test_invalid_utilization(self, u):
        with pytest.raises(ValueError):
            TwoCoreModel(a=1, b=1).execution_time(u, 0.5)

    def test_delta_validation(self):
        m = TwoCoreModel(a=1.0, b=1.0)
        with pytest.raises(ValueError):
            m.e2_one_raised(0.9, 0.2)  # exceeds 1
        with pytest.raises(ValueError):
            m.e3_raised_and_lowered(0.3, 0.3)  # lowered core idles
        with pytest.raises(ValueError):
            m.e2_one_raised(0.5, 0.0)  # no imbalance


class TestNCoreModel:
    def test_matches_two_core_special_case(self):
        two = TwoCoreModel(a=1.5, b=2.5)
        n = NCoreModel(a=1.5, b=2.5, n=2)
        assert n.dynamic_energy([0.6, 0.4]) == pytest.approx(
            two.dynamic_energy(0.6, 0.4)
        )

    def test_balanced_energy_value(self):
        m = NCoreModel(a=2.0, b=3.0, n=5)
        assert m.balanced_energy() == pytest.approx(30.0)
        assert m.dynamic_energy([0.7] * 5) == pytest.approx(30.0)

    @given(
        st.lists(util, min_size=2, max_size=12),
    )
    def test_balanced_is_global_minimum(self, utils):
        m = NCoreModel(a=1.0, b=1.0, n=len(utils))
        assert m.dynamic_energy(utils) >= m.balanced_energy() - 1e-9

    @given(st.lists(util, min_size=2, max_size=8))
    def test_permutation_invariance(self, utils):
        m = NCoreModel(a=1.0, b=1.0, n=len(utils))
        base = m.dynamic_energy(utils)
        for perm in itertools.islice(itertools.permutations(utils), 6):
            assert m.dynamic_energy(list(perm)) == pytest.approx(base)

    @given(util, st.integers(min_value=2, max_value=10))
    def test_raising_one_core_increases_energy(self, u, n):
        if u >= 0.9:
            return
        m = NCoreModel(a=1.0, b=1.0, n=n)
        balanced = [u] * n
        raised = [u + 0.05] + [u] * (n - 1)
        assert m.dynamic_energy(raised) > m.dynamic_energy(balanced)

    def test_imbalance_zero_iff_balanced(self):
        m = NCoreModel(a=1.0, b=1.0, n=3)
        assert m.imbalance([0.5, 0.5, 0.5]) == 0.0
        assert m.imbalance([0.5, 0.6, 0.5]) > 0.0

    def test_execution_time_set_by_slowest(self):
        m = NCoreModel(a=1.0, b=2.0, n=3)
        assert m.execution_time([0.4, 0.8, 0.6]) == pytest.approx(5.0)

    def test_shape_validation(self):
        m = NCoreModel(a=1.0, b=1.0, n=3)
        with pytest.raises(ValueError):
            m.dynamic_energy([0.5, 0.5])
        with pytest.raises(ValueError):
            m.dynamic_energy([0.5, 0.5, 1.5])

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            NCoreModel(a=1.0, b=1.0, n=0)
        with pytest.raises(ValueError):
            NCoreModel(a=-1.0, b=1.0, n=2)
