"""Tests for the application models (matmul_gpu, dgemm_cpu, fft2d)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps.dgemm_cpu import DGEMMCPUApp, _factor_pairs
from repro.apps.fft2d import FFT2DApp, fft_work, radix_penalty
from repro.apps.matmul_gpu import MatmulGPUApp, config_enumeration, divisors
from repro.core.biobjective import ConfigurationSpace, greedy_front_search
from repro.machines import HASWELL, K40C, P100
from repro.simgpu.calibration import P100_CAL
from repro.simgpu.kernel import max_group_size, shared_mem_per_block


class TestDivisors:
    @pytest.mark.parametrize(
        "n,expected",
        [(1, [1]), (24, [1, 2, 3, 4, 6, 8, 12, 24]), (7, [1, 7])],
    )
    def test_values(self, n, expected):
        assert divisors(n) == expected

    @given(st.integers(min_value=1, max_value=10000))
    def test_all_divide(self, n):
        ds = divisors(n)
        assert all(n % d == 0 for d in ds)
        assert ds == sorted(ds)
        assert ds[0] == 1 and ds[-1] == n

    def test_invalid(self):
        with pytest.raises(ValueError):
            divisors(0)


class TestMatmulConfigSpace:
    def test_workload_conserved(self):
        app = MatmulGPUApp(P100, total_products=24)
        for cfg in app.valid_configs():
            assert cfg.g * cfg.r == 24

    def test_shared_memory_constraint_respected(self):
        app = MatmulGPUApp(P100)
        for cfg in app.valid_configs():
            smem = shared_mem_per_block(cfg.bs, cfg.g)
            assert smem <= P100.shared_mem_per_block_bytes

    def test_bs32_admits_g_up_to_3(self):
        app = MatmulGPUApp(P100)
        gs = {c.g for c in app.valid_configs() if c.bs == 32}
        assert gs == {1, 2, 3}

    def test_small_bs_admits_all_dividing_g(self):
        app = MatmulGPUApp(P100)
        gs = {c.g for c in app.valid_configs() if c.bs == 8}
        assert gs == {1, 2, 3, 4, 6, 8}

    def test_config_count_consistent_with_max_group(self):
        app = MatmulGPUApp(P100, min_bs=4)
        expected = sum(
            sum(1 for g in divisors(24) if g <= max_group_size(P100, bs))
            for bs in range(4, 33)
        )
        assert sum(1 for _ in app.valid_configs(min_bs=4)) == expected

    def test_config_space_object_agrees(self):
        app = MatmulGPUApp(P100, min_bs=4)
        space = app.config_space()
        from_iter = {
            (c.bs, c.g, c.r) for c in app.valid_configs(min_bs=4)
        }
        from_space = {(c["bs"], c["g"], c["r"]) for c in space}
        assert from_space == from_iter

    @pytest.mark.parametrize("min_bs", [1, 4])
    @pytest.mark.parametrize("spec", [K40C, P100], ids=["k40c", "p100"])
    def test_config_space_is_what_its_predicate_keeps(self, spec, min_bs):
        """The space read from the enumeration memo equals one pass of
        its own predicate over the product, in order, so the greedy
        search evaluates the same sequence on either."""
        space = MatmulGPUApp(spec, min_bs=min_bs).config_space()
        scanned = ConfigurationSpace(space.variables, space.is_valid)
        assert tuple(space) == tuple(scanned)

        def evaluate(cfg):
            return cfg["bs"] + 1.0 / cfg["g"], 1.0 / cfg["bs"] + cfg["g"]

        def sequence(s):
            _, evaluated = greedy_front_search(s, evaluate, budget=40, seed=1)
            return [ec.config for ec in evaluated]

        assert sequence(space) == sequence(scanned)

    def test_sweep_points_carry_configs(self):
        app = MatmulGPUApp(K40C)
        pts = app.sweep_points(2048)
        assert all(set(p.config) == {"bs", "g", "r"} for p in pts)
        assert len(pts) == sum(1 for _ in app.valid_configs(min_bs=4))

    def test_enumeration_is_shared_across_calibrations(self):
        """The memo key is what the enumeration reads; the calibration
        is not part of it."""
        import dataclasses

        perturbed = dataclasses.replace(P100_CAL, e_lane_j=P100_CAL.e_lane_j * 2)
        shared = MatmulGPUApp(P100).sweep_enumeration()
        assert MatmulGPUApp(P100, perturbed).sweep_enumeration() is shared
        assert MatmulGPUApp(K40C).sweep_enumeration() is not shared
        assert MatmulGPUApp(P100).sweep_enumeration(min_bs=1) is not shared
        assert MatmulGPUApp(P100, g_cap=4).sweep_enumeration() is not shared
        assert (
            MatmulGPUApp(P100, bs_range=(1, 16)).sweep_enumeration()
            is not shared
        )
        assert shared is config_enumeration(P100, 24, (1, 32), 8, 4)

    def test_enumeration_is_immutable_and_lists_are_fresh(self):
        app = MatmulGPUApp(P100)
        configs = app.sweep_configs()
        configs.clear()  # a caller's list is its own
        assert app.sweep_configs() == list(app.sweep_enumeration())
        assert len(app.sweep_configs()) == 146
        packed, bs, g, r = app.sweep_enumeration().columns
        assert list(bs) == [c.bs for c in app.sweep_configs()]
        for column in (packed, bs, g, r):
            with pytest.raises(ValueError):
                column[0] = 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            MatmulGPUApp(P100, total_products=0)
        with pytest.raises(ValueError):
            MatmulGPUApp(P100, bs_range=(0, 32))


class TestDGEMMCPUApp:
    def test_factor_pairs(self):
        assert _factor_pairs(6) == [(1, 6), (2, 3), (3, 2), (6, 1)]
        assert _factor_pairs(1) == [(1, 1)]

    def test_config_totals_respected(self):
        app = DGEMMCPUApp(HASWELL, thread_counts=(6, 24))
        for cfg in app.valid_configs("mkl"):
            assert cfg.n_threads in (6, 24)

    def test_all_partitions_and_libraries(self):
        app = DGEMMCPUApp(HASWELL, thread_counts=(4,))
        cfgs = list(app.valid_configs())
        assert {c.partition for c in cfgs} == {"row", "col", "block"}
        assert {c.library for c in cfgs} == {"mkl", "openblas"}

    def test_sweep_size(self):
        app = DGEMMCPUApp(HASWELL, thread_counts=(6,), libraries=("mkl",))
        # 3 partitions x 4 factorizations of 6.
        assert len(app.sweep(4096)) == 12

    def test_sweep_points_have_positive_objectives(self):
        app = DGEMMCPUApp(HASWELL, thread_counts=(12,), libraries=("mkl",))
        for p in app.sweep_points(4096):
            assert p.time_s > 0 and p.energy_j > 0

    def test_invalid_thread_counts(self):
        with pytest.raises(ValueError):
            DGEMMCPUApp(HASWELL, thread_counts=(96,))
        with pytest.raises(ValueError):
            DGEMMCPUApp(HASWELL, thread_counts=())


class TestFFTWork:
    def test_formula(self):
        assert fft_work(1024) == pytest.approx(5.0 * 1024**2 * 10.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            fft_work(1)


class TestRadix:
    def test_power_of_two_cheapest(self):
        assert radix_penalty(2048) == pytest.approx(1.0)

    def test_mixed_native_radices_mild(self):
        assert 1.0 < radix_penalty(3000) < 1.5  # 2^3 · 3 · 5^3

    def test_large_prime_expensive(self):
        assert radix_penalty(8191) > 2.0  # prime

    def test_prime_penalty_grows_with_factor(self):
        assert radix_penalty(44 * 1021) > radix_penalty(44 * 11)

    @given(st.integers(min_value=2, max_value=50000))
    def test_penalty_bounds(self, n):
        p = radix_penalty(n)
        assert 1.0 <= p < 10.0


class TestFFT2DApp:
    def test_devices(self):
        app = FFT2DApp()
        assert app.devices() == ["haswell", "k40c", "p100"]

    def test_gpu_faster_than_cpu(self):
        app = FFT2DApp()
        n = 8192
        assert app.run("p100", n).time_s < app.run("haswell", n).time_s

    def test_energy_nonlinear_in_work(self):
        app = FFT2DApp()
        # Same work scaling, very different energy/op: prime vs pow2.
        smooth = app.run("haswell", 16384)
        awkward = app.run("haswell", 16381)  # prime
        e_per_w_smooth = smooth.dynamic_energy_j / smooth.work
        e_per_w_awkward = awkward.dynamic_energy_j / awkward.work
        assert e_per_w_awkward > 1.5 * e_per_w_smooth

    def test_cache_crossing_raises_energy_per_op(self):
        app = FFT2DApp()
        tiny = app.run("haswell", 512)
        huge = app.run("haswell", 32768)
        assert (
            huge.dynamic_energy_j / huge.work
            > 1.3 * tiny.dynamic_energy_j / tiny.work
        )

    def test_gpu_memory_limit_enforced(self):
        app = FFT2DApp()
        with pytest.raises(ValueError, match="memory"):
            app.run("p100", 40000)

    def test_sweep_skips_oom_sizes(self):
        app = FFT2DApp()
        results = app.sweep("k40c", [1024, 40000, 2048])
        assert [r.n for r in results] == [1024, 2048]

    def test_sweep_all_oom_raises(self):
        app = FFT2DApp()
        with pytest.raises(ValueError):
            app.sweep("k40c", [40000])

    def test_unknown_device(self):
        with pytest.raises(KeyError):
            FFT2DApp().run("tpu", 1024)
