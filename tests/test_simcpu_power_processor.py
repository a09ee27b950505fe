"""Tests for the CPU power model and the DGEMM processor facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machines import HASWELL
from repro.simcpu.calibration import HASWELL_CAL, LIBRARIES
from repro.simcpu.power import cpu_power, page_walk_rate
from repro.simcpu.processor import DGEMMConfig, MulticoreCPU
from repro.simcpu.topology import place_threads

N = 17408


class TestPageWalks:
    def test_scales_with_traffic(self):
        assert page_walk_rate(2e10, 1, HASWELL_CAL) == pytest.approx(
            2 * page_walk_rate(1e10, 1, HASWELL_CAL)
        )

    def test_thrash_grows_with_groups(self):
        base = page_walk_rate(1e10, 1, HASWELL_CAL)
        many = page_walk_rate(1e10, 24, HASWELL_CAL)
        assert many == pytest.approx(
            base * (1 + HASWELL_CAL.walk_thrash_per_group * 23)
        )

    def test_walk_factor(self):
        a = page_walk_rate(1e10, 2, HASWELL_CAL, walk_factor=1.0)
        b = page_walk_rate(1e10, 2, HASWELL_CAL, walk_factor=3.0)
        assert b == pytest.approx(3 * a)

    def test_validation(self):
        with pytest.raises(ValueError):
            page_walk_rate(1e10, 0, HASWELL_CAL)
        with pytest.raises(ValueError):
            page_walk_rate(1e10, 1, HASWELL_CAL, walk_factor=0.0)


class TestCPUPower:
    def test_components_sum(self):
        placement = place_threads(HASWELL, 24)
        p = cpu_power(
            HASWELL, HASWELL_CAL, placement,
            flops_per_s=7e11, traffic_bytes_per_s=3e10, n_groups=4,
        )
        assert p.dynamic_w == pytest.approx(
            p.cores_w + p.flops_w + p.uncore_w + p.dram_w + p.dtlb_w
        )

    def test_uncore_counts_active_sockets(self):
        one = cpu_power(
            HASWELL, HASWELL_CAL, place_threads(HASWELL, 1),
            flops_per_s=3e10, traffic_bytes_per_s=1e9, n_groups=1,
        )
        # With scatter placement, 2 threads span both sockets.
        two = cpu_power(
            HASWELL, HASWELL_CAL, place_threads(HASWELL, 2),
            flops_per_s=6e10, traffic_bytes_per_s=2e9, n_groups=1,
        )
        assert two.uncore_w == pytest.approx(2 * one.uncore_w)

    def test_smt_surcharge(self):
        p24 = cpu_power(
            HASWELL, HASWELL_CAL, place_threads(HASWELL, 24),
            flops_per_s=7e11, traffic_bytes_per_s=3e10, n_groups=1,
        )
        p48 = cpu_power(
            HASWELL, HASWELL_CAL, place_threads(HASWELL, 48),
            flops_per_s=7e11, traffic_bytes_per_s=3e10, n_groups=1,
        )
        assert p48.cores_w == pytest.approx(
            p24.cores_w + 24 * HASWELL_CAL.p_smt_extra_w
        )

    def test_negative_rates_rejected(self):
        with pytest.raises(ValueError):
            cpu_power(
                HASWELL, HASWELL_CAL, place_threads(HASWELL, 1),
                flops_per_s=-1.0, traffic_bytes_per_s=0.0, n_groups=1,
            )


class TestDGEMMConfig:
    def test_thread_count(self):
        assert DGEMMConfig("row", 4, 6).n_threads == 24

    def test_key_stable(self):
        assert DGEMMConfig("row", 4, 6, "mkl").key() == "mkl:row:p4:t6"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"partition": "diagonal", "groups": 1, "threads_per_group": 1},
            {"partition": "row", "groups": 0, "threads_per_group": 1},
            {"partition": "row", "groups": 1, "threads_per_group": 0},
            {"partition": "row", "groups": 1, "threads_per_group": 1,
             "library": "blis"},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DGEMMConfig(**kwargs)


class TestMulticoreCPU:
    def test_performance_scales_with_threads_then_plateaus(
        self, haswell_cpu: MulticoreCPU
    ):
        gf = {
            t: haswell_cpu.run_dgemm(N, DGEMMConfig("row", 1, t)).gflops
            for t in (1, 6, 12, 24, 48)
        }
        assert gf[6] > 5 * gf[1]
        assert gf[24] > 1.8 * gf[12]
        # SMT adds nothing for a port-bound DGEMM: the Fig. 4 plateau.
        assert gf[48] == pytest.approx(gf[24], rel=0.08)

    def test_plateau_near_700_gflops(self, haswell_cpu: MulticoreCPU):
        gf = haswell_cpu.run_dgemm(N, DGEMMConfig("row", 1, 24)).gflops
        assert 650 < gf < 800

    def test_openblas_slower_than_mkl(self, haswell_cpu: MulticoreCPU):
        mkl = haswell_cpu.run_dgemm(N, DGEMMConfig("row", 1, 24, "mkl"))
        ob = haswell_cpu.run_dgemm(N, DGEMMConfig("row", 1, 24, "openblas"))
        assert ob.gflops < mkl.gflops

    def test_energy_is_power_times_time(self, haswell_cpu: MulticoreCPU):
        r = haswell_cpu.run_dgemm(N, DGEMMConfig("block", 4, 6))
        assert r.dynamic_energy_j == pytest.approx(
            r.power.dynamic_w * r.time_s
        )

    def test_more_groups_more_dtlb_power(self, haswell_cpu: MulticoreCPU):
        few = haswell_cpu.run_dgemm(N, DGEMMConfig("row", 1, 24))
        many = haswell_cpu.run_dgemm(N, DGEMMConfig("row", 24, 1))
        assert many.power.dtlb_w > 5 * few.power.dtlb_w

    def test_col_partition_walks_most(self, haswell_cpu: MulticoreCPU):
        row = haswell_cpu.run_dgemm(N, DGEMMConfig("row", 4, 6))
        col = haswell_cpu.run_dgemm(N, DGEMMConfig("col", 4, 6))
        blk = haswell_cpu.run_dgemm(N, DGEMMConfig("block", 4, 6))
        assert col.power.dtlb_w > row.power.dtlb_w > blk.power.dtlb_w

    def test_skinny_blocks_hurt_throughput(self, haswell_cpu: MulticoreCPU):
        # N=1024 over 48 threads: ~21 rows per thread — deep in the
        # skinny regime; per-thread efficiency collapses.
        wide = haswell_cpu.run_dgemm(8192, DGEMMConfig("row", 1, 24))
        skinny = haswell_cpu.run_dgemm(1024, DGEMMConfig("row", 1, 48))
        eff_wide = wide.gflops / 24
        eff_skinny = skinny.gflops / 48
        assert eff_skinny < 0.7 * eff_wide

    def test_deterministic_without_rng(self, haswell_cpu: MulticoreCPU):
        a = haswell_cpu.run_dgemm(N, DGEMMConfig("row", 2, 12))
        b = haswell_cpu.run_dgemm(N, DGEMMConfig("row", 2, 12))
        assert a.time_s == b.time_s
        assert a.avg_utilization == b.avg_utilization

    def test_rng_jitter(self, haswell_cpu: MulticoreCPU):
        rng = np.random.default_rng(0)
        times = {
            haswell_cpu.run_dgemm(N, DGEMMConfig("row", 2, 12), rng=rng).time_s
            for _ in range(5)
        }
        assert len(times) == 5

    def test_avg_utilization_percent_scale(self, haswell_cpu: MulticoreCPU):
        r = haswell_cpu.run_dgemm(N, DGEMMConfig("row", 1, 24))
        assert 40.0 < r.avg_utilization < 52.0

    def test_invalid_n(self, haswell_cpu: MulticoreCPU):
        with pytest.raises(ValueError):
            haswell_cpu.run_dgemm(0, DGEMMConfig("row", 1, 1))


#: ``run_dgemm`` of a 32-thread configuration (8 SMT cores, 16 solo),
#: as ``(freq_scale, float.hex of time_s, dynamic_energy_j, gflops,
#: avg_utilization, then the five power components)``.
EXACT_DGEMM = [
    (1.0, ("0x1.05164b5ee484ep+4", "0x1.ad36061789826p+10",
           "0x1.434822751a9dcp+9", "0x1.fc0ef65de01efp+5",
           "0x1.5333333333334p+5", "0x1.6a1359cad6215p+5",
           "0x1.c000000000000p+3", "0x1.5d942ccc0716cp+0",
           "0x1.17f1556f5dbdbp+1")),
    (0.7, ("0x1.74fb4719d8bdcp+4", "0x1.3184b6e8c0746p+10",
           "0x1.c498303d8ba9bp+8", "0x1.fc0ef65de01efp+5",
           "0x1.161e828a34f76p+4", "0x1.28e0200146acbp+4",
           "0x1.c000000000000p+3", "0x1.e9690b8409ecbp-1",
           "0x1.87eb779be9a32p+0")),
]


class TestExactValues:
    """The CPU model of record's outputs, exact to the last bit."""

    @pytest.mark.parametrize(
        "freq_scale, expected", EXACT_DGEMM, ids=["freq-1.0", "freq-0.7"]
    )
    def test_run_dgemm_bit_exact(self, haswell_cpu, freq_scale, expected):
        cfg = DGEMMConfig("block", 4, 8, "openblas")
        r = haswell_cpu.run_dgemm(N, cfg, freq_scale=freq_scale)
        p = r.power
        got = (
            r.time_s, r.dynamic_energy_j, r.gflops, r.avg_utilization,
            p.cores_w, p.flops_w, p.uncore_w, p.dram_w, p.dtlb_w,
        )
        assert tuple(v.hex() for v in got) == expected
        assert (r.placement.active_physical_cores, r.placement.smt_cores) == (
            24, 8
        )
