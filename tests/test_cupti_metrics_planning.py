"""Tests for CUPTI derived metrics."""

from __future__ import annotations

import pytest

from repro.machines import P100
from repro.simgpu import CuptiProfiler, calibration_for


@pytest.fixture(scope="module")
def profiler():
    return CuptiProfiler(P100, calibration_for(P100))


class TestDerivedMetrics:
    def test_sound_metrics_at_small_n(self, profiler):
        m = profiler.metrics(1024, 32)
        assert 0.0 < m["flop_dp_efficiency"] <= 1.0
        assert 0.0 < m["ipc"] < 64.0
        assert 0.0 < m["gld_efficiency"] <= 1.0
        assert m["dram_read_throughput"] > 0.0

    def test_bs32_perfect_gld_efficiency(self, profiler):
        # Fully coalesced rows: useful == fetched.
        assert profiler.metrics(1024, 32)["gld_efficiency"] == pytest.approx(
            1.0, abs=0.01
        )

    def test_small_tiles_poor_gld_efficiency(self, profiler):
        # BS=2 rows are 16 B of a 32 B sector.
        m = profiler.metrics(512, 2)
        assert m["gld_efficiency"] < 0.8

    def test_metrics_garbage_after_overflow(self, profiler):
        """The paper: 'events and metrics ... reported inaccurate
        counts'.  Derived metrics silently go wrong at large N."""
        sound = profiler.metrics(1024, 32)
        wrapped = profiler.metrics(8192, 32)
        # flop efficiency collapses because flop_count_dp wrapped.
        assert wrapped["flop_dp_efficiency"] < 0.1 * sound["flop_dp_efficiency"]

    def test_efficiency_tracks_tile_quality(self, profiler):
        eff32 = profiler.metrics(1024, 32)["flop_dp_efficiency"]
        eff8 = profiler.metrics(1024, 8)["flop_dp_efficiency"]
        assert eff32 > eff8
