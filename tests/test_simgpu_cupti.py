"""Tests for the simulated CUPTI profiler and its overflow failure mode."""

from __future__ import annotations

import pytest

from repro.machines import K40C, P100
from repro.simgpu.calibration import calibration_for
from repro.simgpu.cupti import EVENT_NAMES, CuptiProfiler
from repro.simgpu.kernel import (
    matmul_kernel_resources,
    max_group_size,
    tile_fits,
)
from repro.simgpu.occupancy import compute_occupancy


@pytest.fixture(scope="module")
def profiler() -> CuptiProfiler:
    return CuptiProfiler(P100, calibration_for(P100))


class TestTrueCounts:
    def test_flop_count_exact(self, profiler):
        res = matmul_kernel_resources(P100, profiler.cal, 1024, 32, 1)
        counts = profiler.true_counts(res)
        assert counts["flop_count_dp"] == 2 * 1024**3

    def test_counts_scale_with_r(self, profiler):
        res = matmul_kernel_resources(P100, profiler.cal, 512, 16, 2)
        one = profiler.true_counts(res, r=1)
        three = profiler.true_counts(res, r=3)
        assert all(three[k] == 3 * one[k] for k in one)

    def test_counts_additive_in_g(self, profiler):
        r1 = matmul_kernel_resources(P100, profiler.cal, 512, 16, 1)
        r2 = matmul_kernel_resources(P100, profiler.cal, 512, 16, 2)
        c1 = profiler.true_counts(r1)
        c2 = profiler.true_counts(r2)
        for name in ("flop_count_dp", "gst_transactions", "warps_launched"):
            assert c2[name] == pytest.approx(2 * c1[name], rel=1e-9)

    @pytest.mark.parametrize("spec", [K40C, P100], ids=["k40c", "p100"])
    def test_warps_launched_counts_the_resident_warps_per_block(self, spec):
        """One warp count: ``warps_launched`` is ``grid_blocks x G`` times
        the warps per block of the occupancy record
        (``active_warps_per_sm / blocks_per_sm``), for every valid BS
        and G."""
        cal = calibration_for(spec)
        profiler = CuptiProfiler(spec, cal)
        checked = 0
        for bs in filter(lambda bs: tile_fits(spec, bs), range(1, 33)):
            for g in range(1, max_group_size(spec, bs) + 1):
                res = matmul_kernel_resources(spec, cal, 10240, bs, g)
                occ = compute_occupancy(
                    spec, res.threads_per_block, res.smem_per_block_bytes
                )
                block_warps, rest = divmod(
                    occ.active_warps_per_sm, occ.blocks_per_sm
                )
                assert rest == 0
                warps = profiler.true_counts(res)["warps_launched"]
                assert warps == res.grid_blocks * g * block_warps, (bs, g)
                checked += 1
        assert checked > 32

    def test_shared_loads_two_per_fma(self, profiler):
        res = matmul_kernel_resources(P100, profiler.cal, 1024, 32, 1)
        counts = profiler.true_counts(res)
        # BS=32: no replays, so shared loads = 2 warp-insts = FMAs/16.
        assert counts["shared_load"] == pytest.approx(
            2 * counts["flop_count_dp"] / 2 / 32, rel=1e-6
        )

    def test_all_events_present(self, profiler):
        res = matmul_kernel_resources(P100, profiler.cal, 256, 8, 1)
        counts = profiler.true_counts(res)
        assert set(counts) == set(EVENT_NAMES)

    def test_invalid_r(self, profiler):
        res = matmul_kernel_resources(P100, profiler.cal, 256, 8, 1)
        with pytest.raises(ValueError):
            profiler.true_counts(res, r=0)


class TestOverflow:
    def test_small_n_is_reliable(self, profiler):
        readings = profiler.profile(1024, 32)
        assert all(r.reliable for r in readings.values())
        assert all(r.reported == r.true_count for r in readings.values())

    def test_large_n_overflows_key_events(self):
        """The paper's finding: counters overflow for large N."""
        profiler = CuptiProfiler(P100, calibration_for(P100))
        readings = profiler.profile(8192, 32)
        flops = readings["flop_count_dp"]
        assert flops.overflowed
        assert not flops.reliable
        assert flops.reported == flops.true_count % (1 << 32)
        assert flops.reported != flops.true_count

    def test_overflow_boundary_near_paper_n(self, profiler):
        # 2·N³ crosses 2³² between N = 1024 and N = 2048, consistent
        # with the paper observing bad counts for N > 2048 (some events
        # count transactions, not flops, and overflow later).
        assert profiler.profile(1024, 32)["flop_count_dp"].reliable
        assert not profiler.profile(2048, 32)["flop_count_dp"].reliable

    def test_reliable_events_filter(self, profiler):
        reliable = profiler.reliable_events(8192, 32)
        assert "flop_count_dp" not in reliable
        assert len(reliable) < len(EVENT_NAMES)
        # Writeback transactions stay small (N² scale) and survive.
        assert "gst_transactions" in reliable

    def test_k40c_profiler_too(self):
        profiler = CuptiProfiler(K40C, calibration_for(K40C))
        readings = profiler.profile(4096, 32)
        assert not readings["flop_count_dp"].reliable
