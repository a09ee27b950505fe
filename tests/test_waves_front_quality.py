"""Tests for the wave-tail argument and the front-quality indicators."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.front_quality import additive_epsilon, igd
from repro.core.pareto import ParetoPoint, pareto_front
from repro.machines import K40C, P100
from repro.simgpu.occupancy import compute_occupancy


def P(t, e):
    return ParetoPoint(t, e)


class TestWaves:
    def test_paper_scale_grids_have_negligible_tail(self):
        """The argument the aggregate timing model rests on
        (docs/MODEL.md §1.5): it ignores the underfilled last wave of a
        launch, which is safe only when the grid runs many waves."""
        n, bs = 10240, 32
        grid = (n // bs) ** 2
        for spec in (K40C, P100):
            occ = compute_occupancy(spec, bs * bs, 2 * bs * bs * 8)
            concurrent = occ.blocks_per_sm * spec.sm_count
            waves = math.ceil(grid / concurrent)
            # The tail wave takes as long as a full one.
            tail_share = 1.0 / waves if grid % concurrent else 0.0
            assert waves > 100
            assert tail_share < 0.01


class TestFrontQuality:
    REF = [P(1.0, 3.0), P(2.0, 2.0), P(3.0, 1.0)]

    def test_perfect_match_scores_zero(self):
        assert igd(self.REF, self.REF) == 0.0
        assert additive_epsilon(self.REF, self.REF) == 0.0

    def test_subset_misses_points(self):
        approx = [self.REF[0], self.REF[2]]
        assert igd(self.REF, approx) > 0.0
        assert additive_epsilon(self.REF, approx) > 0.0

    def test_dominating_approximation_epsilon_zero(self):
        better = [P(0.9, 2.9), P(1.9, 1.9), P(2.9, 0.9)]
        assert additive_epsilon(self.REF, better) == 0.0

    def test_epsilon_value_known_case(self):
        # Approximation covers only the middle point; in normalized
        # space (mins t=1, e=1) the worst reference point is (1, 3):
        # best cover by (2, 2): eps = max(2-1, 2-3) = 1.0.
        approx = [P(2.0, 2.0)]
        assert additive_epsilon(self.REF, approx) == pytest.approx(1.0)

    def test_igd_averages_distances(self):
        approx = [P(1.0, 3.0)]
        # Normalized ref: (1,3),(2,2),(3,1); distances to (1,3):
        # 0, sqrt(1+1), sqrt(4+4) -> mean = (0+1.414+2.828)/3.
        assert igd(self.REF, approx) == pytest.approx(
            (0.0 + np.sqrt(2.0) + np.sqrt(8.0)) / 3.0
        )

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            igd([], self.REF)
        with pytest.raises(ValueError):
            additive_epsilon(self.REF, [])

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.5, max_value=50.0),
                st.floats(min_value=0.5, max_value=50.0),
            ),
            min_size=2,
            max_size=25,
        )
    )
    @settings(max_examples=40)
    def test_front_of_superset_scores_zero(self, raw):
        pts = [P(t, e) for t, e in raw]
        ref = pareto_front(pts)
        assert igd(ref, pts) == pytest.approx(0.0, abs=1e-12)
        assert additive_epsilon(ref, pts) == pytest.approx(0.0, abs=1e-12)
