"""Tests for the blocked-matmul kernel resource model."""

from __future__ import annotations

import pytest

from repro.machines import K40C, P100
from repro.simgpu.calibration import calibration_for
from repro.simgpu.kernel import (
    matmul_kernel_resources,
    max_group_size,
    shared_mem_per_block,
)


class TestSharedMemory:
    def test_per_block_formula(self):
        assert shared_mem_per_block(32, 1) == 2 * 1024 * 8
        assert shared_mem_per_block(32, 3) == 3 * 2 * 1024 * 8
        assert shared_mem_per_block(16, 2) == 2 * 2 * 256 * 8


class TestMaxGroupSize:
    def test_bs32_limits(self):
        # 16 KB per product; 48 KB per-block limit -> G <= 3.
        assert max_group_size(P100, 32) == 3
        assert max_group_size(K40C, 32) == 3

    def test_small_bs_hits_source_cap(self):
        assert max_group_size(P100, 8) == 8  # dgemmG8 is the largest group

    def test_mid_bs(self):
        # BS=25: 10 KB per product -> floor(48/10) = 4.
        assert max_group_size(P100, 25) == 4

    def test_custom_cap(self):
        assert max_group_size(P100, 8, g_cap=4) == 4

    def test_oversized_tile_gives_zero(self):
        # BS=56: 2·56²·8 = 50 KB > 48 KB per-block limit.
        assert max_group_size(P100, 56) == 0


class TestKernelResources:
    @pytest.mark.parametrize("spec", [K40C, P100])
    def test_flops_and_grid(self, spec):
        cal = calibration_for(spec)
        res = matmul_kernel_resources(spec, cal, 1024, 32, 2)
        assert res.useful_flops == pytest.approx(2 * 2.0 * 1024.0**3)
        assert res.grid_blocks == (1024 // 32) ** 2
        assert res.ksteps_per_product == 32
        assert res.threads_per_block == 1024
        assert res.smem_per_block_bytes == 2 * 2 * 1024 * 8

    def test_lanes_at_least_flops_per_fma(self):
        cal = calibration_for(P100)
        for bs in (7, 16, 21, 32):
            res = matmul_kernel_resources(P100, cal, 2048, bs, 1)
            # Lanes include wasted partial-warp lanes and replays, so
            # they can never undercut the useful FMA count.
            assert res.lanes_issued >= res.useful_flops / 2.0 * 0.999

    def test_lane_overhead_exact_for_bs32(self):
        cal = calibration_for(P100)
        res = matmul_kernel_resources(P100, cal, 1024, 32, 1)
        # BS=32: no partial warps, no replays -> lanes == FMA count.
        assert res.lanes_issued == pytest.approx(res.useful_flops / 2.0)

    def test_icache_penalty_grows_with_g(self):
        cal = calibration_for(P100)
        r1 = matmul_kernel_resources(P100, cal, 1024, 16, 1)
        r4 = matmul_kernel_resources(P100, cal, 1024, 16, 4)
        assert (
            r4.compute_cycles_per_kstep
            > r1.compute_cycles_per_kstep
        )

    def test_partial_tiles_ceil(self):
        cal = calibration_for(P100)
        res = matmul_kernel_resources(P100, cal, 100, 32, 1)
        assert res.grid_blocks == 16
        assert res.ksteps_per_product == 4

    def test_invalid_g_rejected(self):
        cal = calibration_for(P100)
        with pytest.raises(ValueError, match="not permissible"):
            matmul_kernel_resources(P100, cal, 1024, 32, 4)
        with pytest.raises(ValueError, match="not permissible"):
            matmul_kernel_resources(P100, cal, 1024, 32, 0)

    def test_invalid_bs_rejected(self):
        cal = calibration_for(P100)
        with pytest.raises(ValueError):
            matmul_kernel_resources(P100, cal, 1024, 33, 1)
        with pytest.raises(ValueError):
            matmul_kernel_resources(P100, cal, 1024, 0, 1)

    def test_invalid_n_rejected(self):
        cal = calibration_for(P100)
        with pytest.raises(ValueError):
            matmul_kernel_resources(P100, cal, 0, 32, 1)

    def test_dram_traffic_scales_with_g(self):
        cal = calibration_for(P100)
        r1 = matmul_kernel_resources(P100, cal, 2048, 16, 1)
        r2 = matmul_kernel_resources(P100, cal, 2048, 16, 2)
        assert r2.total_dram_bytes == pytest.approx(2 * r1.total_dram_bytes)
