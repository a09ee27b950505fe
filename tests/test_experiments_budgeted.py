"""Tests for the budgeted-search study."""

from __future__ import annotations

import pytest

from repro.apps.matmul_gpu import MatmulGPUApp
from repro.experiments import budgeted_search
from repro.machines import P100
from repro.sweep import EvalPlanner


class TestBudgetedSearch:
    @pytest.fixture(scope="class")
    def result(self):
        return budgeted_search.run(P100, n=8192, seed=0)

    def test_full_budget_is_exact(self, result):
        full = result.rows[-1]
        assert full.budget == result.space_size
        assert full.igd == pytest.approx(0.0, abs=1e-12)
        assert full.epsilon == pytest.approx(0.0, abs=1e-12)
        assert full.front_size == result.exhaustive_front_size

    def test_quality_improves_with_budget(self, result):
        epsilons = [r.epsilon for r in result.rows]
        assert epsilons[-1] <= epsilons[0]

    def test_half_budget_close_to_exact(self, result):
        half = next(r for r in result.rows if 0.45 <= r.budget_fraction <= 0.55)
        assert half.epsilon < 0.10  # within 10% of the exhaustive front

    def test_deterministic(self):
        a = budgeted_search.run(P100, n=4096, budget_fractions=(0.2,), seed=3)
        b = budgeted_search.run(P100, n=4096, budget_fractions=(0.2,), seed=3)
        assert a.rows[0].igd == b.rows[0].igd

    def test_render(self, result):
        out = result.render()
        assert "IGD" in out and "eps-indicator" in out

    @pytest.mark.parametrize("with_planner", [False, True])
    def test_no_validity_pass_per_run(self, monkeypatch, with_planner):
        """The space is read from the enumeration memo, so no run calls
        the predicate: the exhaustive pass, the planner prefill,
        ``size()`` and every greedy call share the memo's valid
        configurations, and a probe is checked against the valid set.
        """
        calls = 0
        config_space = MatmulGPUApp.config_space

        def counted(app):
            space = config_space(app)
            valid = space.is_valid

            def is_valid(cfg):
                nonlocal calls
                calls += 1
                return valid(cfg)

            space.is_valid = is_valid
            return space

        monkeypatch.setattr(MatmulGPUApp, "config_space", counted)
        engine = EvalPlanner() if with_planner else None
        budgeted_search.run(engine=engine)
        assert calls == 0
