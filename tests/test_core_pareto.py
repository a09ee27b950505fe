"""Unit and property tests for the Pareto-front machinery."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pareto import (
    ParetoPoint,
    dominates,
    local_pareto_front,
    pareto_front,
)


def P(t, e, cfg=None):
    return ParetoPoint(t, e, cfg)


# -- construction -----------------------------------------------------------


class TestParetoPoint:
    def test_objectives_tuple(self):
        assert P(1.0, 2.0).objectives() == (1.0, 2.0)

    @pytest.mark.parametrize("t,e", [(-1.0, 1.0), (1.0, -1.0)])
    def test_rejects_negative(self, t, e):
        with pytest.raises(ValueError, match="non-negative"):
            P(t, e)

    @pytest.mark.parametrize(
        "t,e", [(math.nan, 1.0), (1.0, math.inf), (math.inf, math.inf)]
    )
    def test_rejects_nonfinite(self, t, e):
        with pytest.raises(ValueError, match="finite"):
            P(t, e)

    def test_carries_config(self):
        assert P(1, 1, {"bs": 4}).config == {"bs": 4}


# -- dominance --------------------------------------------------------------


class TestDominates:
    def test_strictly_better_both(self):
        assert dominates(P(1, 1), P(2, 2))

    def test_better_in_one_equal_other(self):
        assert dominates(P(1, 2), P(2, 2))
        assert dominates(P(2, 1), P(2, 2))

    def test_equal_points_do_not_dominate(self):
        assert not dominates(P(1, 1), P(1, 1))

    def test_incomparable(self):
        assert not dominates(P(1, 3), P(3, 1))
        assert not dominates(P(3, 1), P(1, 3))

    def test_antisymmetric(self):
        a, b = P(1, 1), P(2, 2)
        assert dominates(a, b) and not dominates(b, a)

    def test_tolerance_softens_strictness(self):
        # Within tol, a slightly better point is not "strictly better".
        assert not dominates(P(1.0, 1.0), P(1.05, 1.05), tol=0.1)

    def test_tolerance_negative_rejected(self):
        with pytest.raises(ValueError):
            dominates(P(1, 1), P(2, 2), tol=-0.1)


# -- global front -----------------------------------------------------------


class TestParetoFront:
    def test_empty(self):
        assert pareto_front([]) == []

    def test_single(self):
        assert pareto_front([P(1, 1)]) == [P(1, 1)]

    def test_simple_front(self):
        pts = [P(1, 5), P(2, 3), P(3, 4), P(4, 1)]
        front = pareto_front(pts)
        assert [p.objectives() for p in front] == [(1, 5), (2, 3), (4, 1)]

    def test_sorted_by_time(self):
        front = pareto_front([P(4, 1), P(1, 5), P(2, 3)])
        times = [p.time_s for p in front]
        assert times == sorted(times)

    def test_duplicates_collapsed(self):
        front = pareto_front([P(1, 1), P(1, 1), P(1, 1)])
        assert len(front) == 1

    def test_accepts_raw_tuples(self):
        front = pareto_front([(1.0, 5.0), (2.0, 3.0, "cfg")])
        assert len(front) == 2
        assert front[1].config == "cfg"

    def test_equal_time_keeps_lower_energy(self):
        front = pareto_front([P(1, 5), P(1, 3)])
        assert len(front) == 1
        assert front[0].energy_j == 3


finite_points = st.lists(
    st.tuples(
        st.floats(min_value=0.01, max_value=1e6),
        st.floats(min_value=0.01, max_value=1e6),
    ),
    min_size=1,
    max_size=60,
)


class TestParetoFrontProperties:
    @given(finite_points)
    def test_front_members_not_dominated(self, raw):
        pts = [P(t, e) for t, e in raw]
        front = pareto_front(pts)
        for f in front:
            assert not any(dominates(p, f) for p in pts)

    @given(finite_points)
    def test_every_point_weakly_dominated_by_front(self, raw):
        pts = [P(t, e) for t, e in raw]
        front = pareto_front(pts)
        for p in pts:
            assert any(
                f.time_s <= p.time_s and f.energy_j <= p.energy_j for f in front
            )

    @given(finite_points)
    def test_front_is_idempotent(self, raw):
        pts = [P(t, e) for t, e in raw]
        once = pareto_front(pts)
        twice = pareto_front(once)
        assert [p.objectives() for p in once] == [p.objectives() for p in twice]

    @given(finite_points)
    def test_front_strictly_decreasing_energy(self, raw):
        pts = [P(t, e) for t, e in raw]
        front = pareto_front(pts)
        energies = [p.energy_j for p in front]
        assert all(a > b for a, b in zip(energies, energies[1:]))

    @given(finite_points, finite_points)
    def test_front_of_union_subset_of_union_of_fronts(self, raw_a, raw_b):
        a = [P(t, e) for t, e in raw_a]
        b = [P(t, e) for t, e in raw_b]
        combined = pareto_front(a + b)
        union_objs = {
            p.objectives() for p in pareto_front(a) + pareto_front(b)
        }
        assert all(p.objectives() in union_objs for p in combined)


# -- local fronts -----------------------------------------------------------


class TestLocalFront:
    def test_region_restriction(self):
        pts = [P(1, 5, "a"), P(2, 3, "b"), P(4, 1, "a")]
        local = local_pareto_front(pts, lambda p: p.config == "a")
        assert [p.config for p in local] == ["a", "a"]

    def test_local_front_point_can_be_globally_dominated(self):
        pts = [P(1, 1, "fast"), P(2, 3, "slow"), P(3, 2, "slow")]
        local = local_pareto_front(pts, lambda p: p.config == "slow")
        assert len(local) == 2  # both dominated globally, both locally optimal

    def test_empty_region(self):
        assert local_pareto_front([P(1, 1, "a")], lambda p: False) == []
