"""Tests for the extension experiments (ablation, EP metrics, methods)."""

from __future__ import annotations

import pytest

from repro.experiments import ablation, ep_metrics_study, measurement_methods


class TestAblation:
    @pytest.fixture(scope="class")
    def result(self):
        return ablation.run()

    def test_four_mechanisms_covered(self, result):
        assert len(result.rows) == 4
        mechanisms = " ".join(r.mechanism for r in result.rows)
        assert "58 W" in mechanisms
        assert "occupancy" in mechanisms
        assert "thermal" in mechanisms
        assert "imbalance" in mechanisms

    def test_every_mechanism_is_load_bearing(self, result):
        """Removing any modelled mechanism must destroy the structure
        it exists to produce — the calibration is not a lookup table."""
        for row in result.rows:
            assert row.structure_lost, row.mechanism

    def test_render(self, result):
        out = result.render()
        assert "structure lost?" in out
        assert "NO (unexpected)" not in out


class TestEPMetrics:
    @pytest.fixture(scope="class")
    def result(self):
        return ep_metrics_study.run()

    def test_all_platforms_scored(self, result):
        assert len(result.rows) == 3

    def test_metrics_in_plausible_ranges(self, result):
        for row in result.rows:
            assert -0.5 <= row.ryckbosch <= 1.0
            assert 0.0 <= row.wong_annavaram_pr <= 1.0
            assert 0.0 <= row.idle_to_peak <= 1.0

    def test_no_platform_is_proportional(self, result):
        """The paper's thesis: none of these parts is close to EP=1."""
        for row in result.rows:
            assert row.ryckbosch < 0.85, row.platform

    def test_render(self, result):
        assert "Ryckbosch" in result.render()


class TestMeasurementMethods:
    @pytest.fixture(scope="class")
    def result(self):
        return measurement_methods.run()

    def test_three_workloads(self, result):
        assert len(result.comparisons) == 3

    def test_wall_meter_is_most_accurate(self, result):
        """The paper's [13] conclusion, reproduced."""
        assert result.worst_error("wattsup") < 0.02
        assert result.worst_error("wattsup") < result.worst_error("nvml")
        assert result.worst_error("wattsup") < result.worst_error("rapl")

    def test_onboard_sensors_systematically_low(self, result):
        for c in result.comparisons:
            for r in c.readings:
                if r.method in ("nvml", "rapl"):
                    assert r.relative_error < -0.03

    def test_short_kernel_hurts_nvml_more(self, result):
        short, long_, _ = result.comparisons
        assert abs(short.by_method("nvml").relative_error) >= 0.9 * abs(
            long_.by_method("nvml").relative_error
        )

    def test_render(self, result):
        out = result.render()
        assert "wattsup" in out and "nvml" in out and "rapl" in out
