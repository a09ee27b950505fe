"""Tests for the Fig. 3 and Fig. 5 experiments."""

from __future__ import annotations

import pytest

from repro.experiments import fig3_decomposition, fig5_source


class TestFig3Experiment:
    @pytest.fixture(scope="class")
    def result(self):
        return fig3_decomposition.run()

    def test_no_constraint_violations(self, result):
        assert result.violations == 0
        assert result.configurations_checked >= 20

    def test_diagram_shows_groups_and_shared_b(self, result):
        assert "P0.t0" in result.diagram
        assert "shared, read-only" in result.diagram

    def test_render(self, result):
        assert "0 violations" in result.render()


class TestFig5Experiment:
    @pytest.fixture(scope="class")
    def result(self):
        return fig5_source.run()

    def test_paper_structure(self, result):
        assert result.group_routines == 8
        assert result.dispatch_kernels == 32

    def test_sync_site_count(self, result):
        # Each dgemmG<g> has 2g in-product + (g-1) separators:
        # sum over g=1..8 of (3g - 1) = 3*36 - 8 = 100.
        assert result.sync_calls == 100

    def test_source_is_substantial(self, result):
        assert result.lines > 500

    def test_render(self, result):
        out = result.render()
        assert "source head" in out
