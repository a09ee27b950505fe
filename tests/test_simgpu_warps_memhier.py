"""Tests for warp efficiency, warp-row counts and the memory-hierarchy model."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.machines import K40C, P100
from repro.simgpu.calibration import P100_CAL
from repro.simgpu.kernel import avg_rows_per_warp, matmul_kernel_resources
from repro.simgpu.memhier import coalescing_efficiency, matmul_traffic
from repro.simgpu.occupancy import compute_occupancy


def _resources(bs):
    return matmul_kernel_resources(P100, P100_CAL, 2048, bs, 1)


class TestLaneEfficiency:
    """``KernelResources.lane_eff``: the useful share of issued lanes."""

    @pytest.mark.parametrize(
        "bs,expected",
        [(32, 1.0), (24, 576 / 576), (16, 1.0), (8, 1.0), (4, 0.5)],
    )
    def test_known_values(self, bs, expected):
        assert _resources(bs).lane_eff == pytest.approx(expected)

    def test_partial_warp_penalty(self):
        # 25² = 625 threads = 20 warps of 640 lanes.
        assert _resources(25).lane_eff == pytest.approx(625 / 640)

    @pytest.mark.parametrize("bs", range(1, 33))
    def test_bounds(self, bs):
        eff = _resources(bs).lane_eff
        assert 0.0 < eff <= 1.0
        # Exact when the block is a warp multiple.
        if bs * bs % 32 == 0:
            assert eff == 1.0


class TestWarpsPerBlock:
    """``Occupancy``'s warp counts: each resident block holds
    ``ceil(threads / 32)`` warps."""

    @pytest.mark.parametrize(
        "threads,warps", [(1, 1), (32, 1), (33, 2), (1024, 32)]
    )
    def test_values(self, threads, warps):
        occ = compute_occupancy(P100, threads, 16)
        assert occ.active_warps_per_sm == warps * occ.blocks_per_sm


class TestAvgRowsPerWarp:
    def test_full_width_single_row(self):
        assert avg_rows_per_warp(32) == 1.0

    @given(st.integers(min_value=1, max_value=32))
    def test_matches_bruteforce(self, bs):
        threads = bs * bs
        n_warps = math.ceil(threads / 32)
        total = 0
        for w in range(n_warps):
            rows = {
                tid // bs for tid in range(w * 32, min(threads, w * 32 + 32))
            }
            total += len(rows)
        assert avg_rows_per_warp(bs) == pytest.approx(total / n_warps)

    def test_bounds(self):
        for bs in range(1, 33):
            rows = avg_rows_per_warp(bs)
            assert 1.0 <= rows <= 32.0


class TestCoalescing:
    def test_full_sector_is_perfect(self):
        assert coalescing_efficiency(256, 32) == 1.0

    def test_sub_sector_row_wastes(self):
        # 8 bytes out of one 32-byte sector.
        assert coalescing_efficiency(8, 32) == pytest.approx(0.25)

    def test_step_at_sector_boundary(self):
        # 8·20 = 160 B = 5 sectors exactly; 8·21 = 168 B -> 6 sectors.
        assert coalescing_efficiency(160, 32) == 1.0
        assert coalescing_efficiency(168, 32) == pytest.approx(168 / 192)

    @given(st.integers(min_value=1, max_value=4096))
    def test_bounds(self, row):
        eff = coalescing_efficiency(row, 32)
        assert 0.0 < eff <= 1.0



class TestMatmulTraffic:
    def test_useful_bytes_closed_form(self):
        n, bs = 1024, 16
        t = matmul_traffic(P100, n, bs)
        tiles = n // bs
        assert t.useful_read_bytes == pytest.approx(
            2.0 * tiles**3 * bs * bs * 8.0
        )

    def test_traffic_decreases_with_bs(self):
        n = 4096
        reads = [matmul_traffic(P100, n, bs).dram_read_bytes for bs in (8, 16, 32)]
        assert reads[0] > reads[1] > reads[2]

    def test_write_traffic_is_result_matrix(self):
        t = matmul_traffic(P100, 2048, 32)
        assert t.dram_write_bytes == pytest.approx(2048 * 2048 * 8.0)

    def test_l2_hit_capped(self):
        t = matmul_traffic(P100, 64, 32, l2_hit_cap=0.35)
        assert t.l2_hit_fraction == pytest.approx(0.35)

    def test_l2_hit_shrinks_with_n(self):
        small = matmul_traffic(P100, 2048, 32).l2_hit_fraction
        large = matmul_traffic(P100, 32768, 32).l2_hit_fraction
        assert small >= large

    def test_partial_tiles_rounded_up(self):
        # N=100, BS=32: 4 tiles per dim (ceil), so extra element loads.
        t = matmul_traffic(P100, 100, 32)
        assert t.useful_read_bytes == pytest.approx(2.0 * 4**3 * 1024 * 8.0)

    def test_errors(self):
        with pytest.raises(ValueError):
            matmul_traffic(P100, 0, 32)
        with pytest.raises(ValueError):
            matmul_traffic(P100, 1024, 0)
        with pytest.raises(ValueError):
            matmul_traffic(P100, 1024, 32, l2_hit_cap=1.5)
