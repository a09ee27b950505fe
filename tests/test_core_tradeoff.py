"""Tests for energy-saving vs. performance-degradation analysis."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.pareto import ParetoPoint
from repro.core.tradeoff import (
    max_energy_saving,
    saving_at_degradation,
    tradeoff_table,
)


def P(t, e, cfg=None):
    return ParetoPoint(t, e, cfg)


FRONTISH = [P(10.0, 100.0, "fast"), P(11.0, 80.0, "mid"), P(13.0, 70.0, "slow")]


class TestTradeoffTable:
    def test_first_entry_is_reference(self):
        table = tradeoff_table(FRONTISH)
        assert table[0].energy_saving == 0.0
        assert table[0].perf_degradation == 0.0
        assert table[0].point.config == "fast"

    def test_values(self):
        table = tradeoff_table(FRONTISH)
        assert table[1].energy_saving == pytest.approx(0.2)
        assert table[1].perf_degradation == pytest.approx(0.1)
        assert table[2].energy_saving == pytest.approx(0.3)
        assert table[2].perf_degradation == pytest.approx(0.3)

    def test_recomputes_front_from_cloud(self):
        cloud = FRONTISH + [P(12.0, 200.0), P(20.0, 300.0)]
        table = tradeoff_table(cloud)
        assert len(table) == 3  # dominated points dropped

    def test_empty(self):
        assert tradeoff_table([]) == []

    def test_ordered_by_degradation(self):
        table = tradeoff_table(FRONTISH)
        degs = [e.perf_degradation for e in table]
        assert degs == sorted(degs)


class TestMaxEnergySaving:
    def test_picks_last_front_point(self):
        entry = max_energy_saving(FRONTISH)
        assert entry.point.config == "slow"
        assert entry.energy_saving == pytest.approx(0.3)

    def test_single_point_degenerate(self):
        entry = max_energy_saving([P(1.0, 1.0)])
        assert entry.energy_saving == 0.0
        assert entry.perf_degradation == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            max_energy_saving([])


class TestSavingAtDegradation:
    def test_budget_respected(self):
        entry = saving_at_degradation(FRONTISH, 0.15)
        assert entry.point.config == "mid"

    def test_zero_budget_gives_reference(self):
        entry = saving_at_degradation(FRONTISH, 0.0)
        assert entry.energy_saving == 0.0

    def test_large_budget_gives_max(self):
        entry = saving_at_degradation(FRONTISH, 10.0)
        assert entry.point.config == "slow"

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            saving_at_degradation(FRONTISH, -0.1)


points_strategy = st.lists(
    st.tuples(
        st.floats(min_value=0.1, max_value=1e4),
        st.floats(min_value=0.1, max_value=1e4),
    ),
    min_size=1,
    max_size=40,
)


class TestTradeoffProperties:
    @given(points_strategy)
    def test_savings_bounded(self, raw):
        pts = [P(t, e) for t, e in raw]
        for entry in tradeoff_table(pts):
            assert 0.0 <= entry.energy_saving < 1.0
            assert entry.perf_degradation >= 0.0

    @given(points_strategy)
    def test_savings_monotone_with_degradation(self, raw):
        pts = [P(t, e) for t, e in raw]
        table = tradeoff_table(pts)
        savings = [e.energy_saving for e in table]
        assert savings == sorted(savings)

    @given(points_strategy, st.floats(min_value=0.0, max_value=5.0))
    def test_budget_monotone(self, raw, budget):
        pts = [P(t, e) for t, e in raw]
        small = saving_at_degradation(pts, budget)
        large = saving_at_degradation(pts, budget + 1.0)
        assert large.energy_saving >= small.energy_saving
