"""Tests for the CUDA occupancy calculator."""

from __future__ import annotations

import pytest

from repro.machines import K40C, P100
from repro.simgpu.occupancy import compute_occupancy


class TestResidencyRules:
    def test_bs32_two_blocks_thread_limited(self):
        occ = compute_occupancy(P100, 32 * 32, 2 * 32 * 32 * 8)
        assert occ.blocks_per_sm == 2
        assert occ.active_threads_per_sm == 2048
        assert occ.occupancy == pytest.approx(1.0)
        assert occ.warp_occupancy == pytest.approx(1.0)

    def test_bs26_warp_limited(self):
        # 676 threads = 22 warps; 3 blocks would need 66 > 64 warps.
        occ = compute_occupancy(P100, 26 * 26, 2 * 26 * 26 * 8)
        assert occ.blocks_per_sm == 2
        assert occ.limiter == "warps"
        assert occ.active_warps_per_sm == 44

    def test_bs24_thread_limited_three_blocks(self):
        occ = compute_occupancy(P100, 24 * 24, 2 * 24 * 24 * 8)
        assert occ.blocks_per_sm == 3
        assert occ.active_warps_per_sm == 54

    def test_shared_memory_limit(self):
        # G=3 at BS=32: 48 KB/block on a 64 KB/SM part -> 1 block.
        occ = compute_occupancy(P100, 1024, 3 * 2 * 32 * 32 * 8)
        assert occ.blocks_per_sm == 1
        assert occ.limiter == "shared_memory"

    def test_max_blocks_limit_tiny_blocks(self):
        occ = compute_occupancy(P100, 16, 256)
        assert occ.blocks_per_sm == P100.max_blocks_per_sm
        assert occ.limiter == "blocks"

    def test_k40c_fewer_max_blocks(self):
        occ = compute_occupancy(K40C, 16, 256)
        assert occ.blocks_per_sm == 16

    def test_warp_occupancy_counts_partial_warps(self):
        # A 6x6 block's 36 threads occupy 2 warps though occupancy
        # counts 36/2048.
        occ = compute_occupancy(P100, 6 * 6, 2 * 6 * 6 * 8)
        assert occ.active_warps_per_sm == 2 * occ.blocks_per_sm
        assert occ.warp_occupancy > occ.occupancy


class TestLaunchLimits:
    def test_too_many_threads_rejected(self):
        with pytest.raises(ValueError, match="launch limit"):
            compute_occupancy(P100, 1025, 0)

    def test_too_much_smem_rejected(self):
        with pytest.raises(ValueError, match="shared memory"):
            compute_occupancy(P100, 256, P100.shared_mem_per_block_bytes + 1)

    def test_zero_threads_rejected(self):
        with pytest.raises(ValueError):
            compute_occupancy(P100, 0, 0)

    def test_negative_smem_rejected(self):
        with pytest.raises(ValueError):
            compute_occupancy(P100, 256, -1)

    def test_zero_smem_rejected(self):
        # Every launch allocates at least one tile pair.
        with pytest.raises(ValueError, match="tile pair"):
            compute_occupancy(P100, 256, 0)


class TestInvariants:
    @pytest.mark.parametrize("spec", [K40C, P100])
    def test_residency_never_exceeds_budgets(self, spec):
        for bs in range(1, 33):
            threads = bs * bs
            for g in (1, 2, 3):
                smem = g * 2 * threads * 8
                if smem > spec.shared_mem_per_block_bytes:
                    continue
                occ = compute_occupancy(spec, threads, smem)
                assert occ.blocks_per_sm >= 1
                assert occ.active_threads_per_sm <= spec.max_threads_per_sm
                assert (
                    occ.active_warps_per_sm
                    <= spec.max_threads_per_sm // spec.warp_size
                )
                assert occ.blocks_per_sm * smem <= spec.shared_mem_per_sm_bytes
                assert 0.0 < occ.occupancy <= 1.0
                assert 0.0 < occ.warp_occupancy <= 1.0
