"""Tests for the GPU device facade."""

from __future__ import annotations

import numpy as np
import pytest

from repro.machines import K40C, P100
from repro.simgpu import device, power
from repro.simgpu.device import GPUDevice


class TestTimingShape:
    def test_time_improves_with_tile_size(self, p100: GPUDevice):
        times = [p100.run_matmul(4096, bs).time_s for bs in (4, 8, 16, 32)]
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_k40c_slower_than_p100(self, k40c: GPUDevice, p100: GPUDevice):
        tk = k40c.run_matmul(8192, 32).time_s
        tp = p100.run_matmul(8192, 32).time_s
        assert tk > 2.0 * tp

    def test_time_scales_roughly_cubically(self, p100: GPUDevice):
        t1 = p100.run_matmul(4096, 32).time_s
        t2 = p100.run_matmul(8192, 32).time_s
        assert t2 / t1 == pytest.approx(8.0, rel=0.3)

    def test_r_launches_scale_linearly(self, p100: GPUDevice):
        t1 = p100.run_matmul(4096, 32, r=1).time_s
        t8 = p100.run_matmul(4096, 32, r=8).time_s
        assert t8 == pytest.approx(8 * t1, rel=0.02)

    def test_realistic_gflops(self, k40c: GPUDevice, p100: GPUDevice):
        def gflops(result):
            flops = result.r * result.resources.useful_flops
            return flops / result.time_s / 1e9

        assert 150 < gflops(k40c.run_matmul(10240, 32)) < 600
        assert 800 < gflops(p100.run_matmul(10240, 32)) < 2500


class TestEnergyAccounting:
    @pytest.mark.parametrize("spec_fixture", ["k40c", "p100"])
    def test_energy_is_power_times_time(self, spec_fixture, request):
        dev = request.getfixturevalue(spec_fixture)
        r = dev.run_matmul(6144, 24, g=2, r=3)
        assert r.dynamic_energy_j == pytest.approx(
            r.dynamic_power_w * r.time_s
        )

    def test_power_within_board_envelope(self, k40c: GPUDevice, p100: GPUDevice):
        for dev, spec in ((k40c, K40C), (p100, P100)):
            for bs in (8, 16, 24, 32):
                r = dev.run_matmul(10240, bs)
                assert 0 < r.dynamic_power_w < 1.4 * spec.tdp_w

    def test_k40c_never_throttles(self, k40c: GPUDevice):
        for bs in (8, 16, 32):
            assert not k40c.run_matmul(10240, bs).throttled
            assert k40c.run_matmul(10240, bs).clock_hz == K40C.base_clock_hz

    def test_p100_hot_config_throttles_when_soaked(self, p100: GPUDevice):
        # Long kernel (large N, many launches) at full occupancy.
        r = p100.run_matmul(14336, 32, g=1, r=24)
        assert r.throttled
        assert r.clock_hz < P100.boost_clock_hz

    def test_p100_short_kernel_stays_boosted(self, p100: GPUDevice):
        # One short launch: thermal inertia keeps the boost clock.
        r = p100.run_matmul(4096, 32, g=1, r=1)
        assert r.clock_hz > 0.97 * P100.boost_clock_hz


class TestFixedClock:
    def test_pins_base_clock(self, p100: GPUDevice):
        r = p100.run_matmul(14336, 32, r=24, fixed_clock=True)
        assert r.clock_hz == P100.base_clock_hz
        assert not r.throttled

    def test_fixed_clock_changes_time(self, p100: GPUDevice):
        free = p100.run_matmul(4096, 24, r=1)
        pinned = p100.run_matmul(4096, 24, r=1, fixed_clock=True)
        # Boost clock beats base clock for a cool config.
        assert pinned.time_s > free.time_s


class TestNoise:
    def test_deterministic_without_rng(self, p100: GPUDevice):
        a = p100.run_matmul(4096, 16)
        b = p100.run_matmul(4096, 16)
        assert a.time_s == b.time_s
        assert a.dynamic_energy_j == b.dynamic_energy_j

    def test_rng_jitter_reproducible(self, p100: GPUDevice):
        a = p100.run_matmul(4096, 16, rng=np.random.default_rng(9))
        b = p100.run_matmul(4096, 16, rng=np.random.default_rng(9))
        assert a.time_s == b.time_s

    def test_jitter_magnitude(self, p100: GPUDevice):
        rng = np.random.default_rng(10)
        base = p100.run_matmul(4096, 16).time_s
        times = np.array(
            [p100.run_matmul(4096, 16, rng=rng).time_s for _ in range(200)]
        )
        rel = times.std() / base
        assert rel == pytest.approx(p100.cal.time_jitter, rel=0.3)


class TestValidation:
    def test_invalid_r(self, p100: GPUDevice):
        with pytest.raises(ValueError):
            p100.run_matmul(1024, 32, r=0)

    def test_invalid_g_for_bs(self, p100: GPUDevice):
        with pytest.raises(ValueError):
            p100.run_matmul(1024, 32, g=5)

    def test_occupancy_in_result(self, p100: GPUDevice):
        r = p100.run_matmul(2048, 26)
        assert r.occupancy.limiter == "warps"
        assert r.occupancy.blocks_per_sm == 2


#: ``KernelRunResult`` fields and ``PowerBreakdown`` components pinned
#: bit for bit by :class:`TestExactValues`, in the order of each row.
EXACT_FIELDS = ("time_s", "dynamic_energy_j", "clock_hz", "product_time_s")
POWER_FIELDS = ("compute_w", "dram_w", "activity_w", "aux_w", "leakage_w")

#: One ``run_matmul`` call per branch of the clock logic, as
#: ``(spec, args, kwargs, throttled, float.hex of EXACT_FIELDS then
#: POWER_FIELDS)``.  An ``"rng"`` kwarg is the seed of a fresh generator.
EXACT_RUNS = [
    pytest.param(
        K40C, (10240, 32), {}, False,
        ("0x1.805b4d96e694dp+2", "0x1.22607b09e7446p+10",
         "0x1.633e620000000p+29", "0x1.805b1b41ffb2bp+2",
         "0x1.f49d9511fa03ep+5", "0x1.e1a9e703f28fep+3",
         "0x1.9000000000000p+6", "0x0.0p+0", "0x1.f8d526325d75dp+3"),
        id="k40c-default",
    ),
    pytest.param(
        K40C, (4096, 16, 2, 3), {"fixed_clock": True}, False,
        ("0x1.69a17b06dae6ap+1", "0x1.2f6d1d81b415fp+9",
         "0x1.633e620000000p+29", "0x1.e22b1161eccd2p-2",
         "0x1.f289f697311e3p+5", "0x1.194dc58ea4257p+4",
         "0x1.5e00000000000p+6", "0x1.c41da79eee91ep+4",
         "0x1.32401d8b196a8p+4"),
        id="k40c-fixed-clock",
    ),
    pytest.param(
        P100, (10240, 26), {}, False,
        ("0x1.52731e7a82550p+0", "0x1.094ef15b3f587p+8",
         "0x1.60dc080000000p+30", "0x1.527276b4d60dep+0",
         "0x1.9fe649d1476f7p+5", "0x1.50de358db2854p+4",
         "0x1.6926b58bfacbbp+6", "0x0.0p+0", "0x1.2ac6ee94b7994p+5"),
        id="p100-boost",
    ),
    pytest.param(
        P100, (10240, 24, 2, 1), {}, False,
        ("0x1.470e3ac508d4fp+1", "0x1.5d78eed873fe7p+9",
         "0x1.5f1c6ec6033d6p+30", "0x1.470de6e232b16p+0",
         "0x1.9940634e9126ap+5", "0x1.5f158afe9c5e6p+4",
         "0x1.cb102a55f10adp+6", "0x1.74581eead2678p+4",
         "0x1.f347d2b4d2941p+5"),
        id="p100-throttled-soak-below-half",
    ),
    pytest.param(
        P100, (14336, 32, 1, 24), {}, True,
        ("0x1.5bc99586223eap+6", "0x1.3e1cdc601c0a6p+14",
         "0x1.449ceb52686c0p+30", "0x1.cfb71e2557855p+1",
         "0x1.51b5c8fee2034p+5", "0x1.fc5c65eee873ep+3",
         "0x1.fedebd821fc93p+6", "0x0.0p+0", "0x1.82b7285ae0dc0p+5"),
        id="p100-throttled-soak-above-half",
    ),
    pytest.param(
        P100, (14336, 32, 1, 24), {"fixed_clock": True}, False,
        ("0x1.64913cc96c786p+6", "0x1.2fcb154eb3b56p+14",
         "0x1.3c9eb00000000p+30", "0x1.db6bfd29ba7cfp+1",
         "0x1.3d4daffdd0c27p+5", "0x1.efd7e45803cd2p+3",
         "0x1.e000000000000p+6", "0x0.0p+0", "0x1.579eaa4cdd45ap+5"),
        id="p100-fixed-clock",
    ),
    pytest.param(
        P100, (4096, 24), {"pinned_clock_hz": 900e6}, False,
        ("0x1.1251aee4d3809p-3", "0x1.209c9a99e9479p+3",
         "0x1.ad27480000000p+29", "0x1.124c70b77147bp-3",
         "0x1.df1fe0b0dc334p+3", "0x1.af505aa15f9bcp+3",
         "0x1.0c11d47ec67f2p+5", "0x0.0p+0", "0x1.57fa225540d94p+2"),
        id="p100-pinned-under-cap",
    ),
    pytest.param(
        P100, (14336, 32, 1, 24), {"pinned_clock_hz": P100.boost_clock_hz},
        True,
        ("0x1.5bc99586223eap+6", "0x1.3e1cdc601c0a6p+14",
         "0x1.449ceb52686c0p+30", "0x1.cfb71e2557855p+1",
         "0x1.51b5c8fee2034p+5", "0x1.fc5c65eee873ep+3",
         "0x1.fedebd821fc93p+6", "0x0.0p+0", "0x1.82b7285ae0dc0p+5"),
        id="p100-pinned-boost-over-cap",
    ),
    pytest.param(
        P100, (4096, 16, 2, 2), {"rng": 9}, False,
        ("0x1.4bd86e416be6ap-2", "0x1.e3011ade2058bp+6",
         "0x1.60524fe4a12b0p+30", "0x1.4d2993b3f7e97p-4",
         "0x1.9c8d4cef1d255p+5", "0x1.086346a4cf446p+5",
         "0x1.397b9bb07bdc7p+7", "0x1.cda011dd0d8c5p+4",
         "0x1.98e0702a14f78p+6"),
        id="p100-rng",
    ),
]


class TestExactValues:
    """The model of record's outputs, exact to the last bit.

    The goldens are rounded and batch parity allows 1e-9 relative
    error, so an ulp-level drift in the scalar model would pass both;
    it fails here.
    """

    @pytest.mark.parametrize("spec, args, kwargs, throttled, expected", EXACT_RUNS)
    def test_run_matmul_bit_exact(self, spec, args, kwargs, throttled, expected):
        if "rng" in kwargs:
            kwargs = {**kwargs, "rng": np.random.default_rng(kwargs["rng"])}
        r = GPUDevice(spec).run_matmul(*args, **kwargs)
        got = tuple(getattr(r, f).hex() for f in EXACT_FIELDS) + tuple(
            getattr(r.power, f).hex() for f in POWER_FIELDS
        )
        assert dict(zip(EXACT_FIELDS + POWER_FIELDS, got)) == dict(
            zip(EXACT_FIELDS + POWER_FIELDS, expected)
        )
        assert r.throttled is throttled
        assert r.dynamic_power_w == r.power.dynamic_w


#: A small grid of both GPUs: K40c calls, P100 calls that bisect under
#: the cap and heat-soak above and below half, and small P100 kernels.
PROBE_GRID = [
    (K40C, (10240, 16, 2, 3)),
    (K40C, (1024, 8, 4, 1)),
    (P100, (18432, 32, 1, 24)),
    (P100, (14336, 32, 1, 24)),
    (P100, (10240, 24, 2, 1)),
    (P100, (4096, 16, 2, 2)),
    (P100, (1024, 8, 1, 8)),
]

#: ``tools/model_fingerprint.py``'s five clock modes, as ``(kwargs of a
#: spec, the clocks each PROBE_GRID call evaluates)``.
PROBE_COUNTS = {
    "default": (lambda spec: {}, [1, 1, 10, 9, 11, 11, 11]),
    "fixed": (lambda spec: {"fixed_clock": True}, [1, 1, 1, 1, 1, 1, 1]),
    "pin-base": (
        lambda spec: {"pinned_clock_hz": spec.base_clock_hz},
        [1, 1, 1, 1, 1, 12, 12],
    ),
    "pin-boost": (
        lambda spec: {"pinned_clock_hz": spec.boost_clock_hz},
        [1, 1, 10, 9, 11, 11, 11],
    ),
    "rng": (
        lambda spec: {"rng": np.random.default_rng(0)},
        [1, 1, 10, 9, 11, 11, 11],
    ),
}


class TestClockEvaluations:
    """``run_matmul`` evaluates each distinct clock once per call."""

    @pytest.fixture
    def clocks(self, monkeypatch) -> list[float]:
        """Clocks the device evaluates power at, in call order."""
        seen: list[float] = []

        def counting(terms, clock_hz, maximum):
            seen.append(clock_hz)
            return power.probe(terms, clock_hz, maximum)

        # The name device.py calls repro.simgpu.power.probe by.
        monkeypatch.setattr(device, "probe", counting)
        return seen

    @pytest.mark.parametrize(
        "spec, args, kwargs",
        [
            pytest.param(K40C, (10240, 32), {}, id="k40c"),
            pytest.param(P100, (10240, 26), {}, id="p100-boost"),
            pytest.param(
                P100, (14336, 32, 1, 24), {"fixed_clock": True},
                id="p100-fixed-clock",
            ),
        ],
    )
    def test_single_clock_call_evaluates_once(self, clocks, spec, args, kwargs):
        r = GPUDevice(spec).run_matmul(*args, **kwargs)
        assert clocks == [r.clock_hz]

    def test_throttled_call_evaluates_boost_once(self, clocks):
        r = GPUDevice(P100).run_matmul(14336, 32, 1, 24)
        assert r.clock_hz < P100.boost_clock_hz
        assert clocks.count(P100.boost_clock_hz) == 1
        assert len(clocks) == len(set(clocks))

    @pytest.mark.parametrize("mode", PROBE_COUNTS)
    def test_each_clock_mode_probes_each_distinct_clock_once(self, clocks, mode):
        """Every call of the grid evaluates exactly its distinct clocks:
        no clock twice, and none skipped."""
        kwargs, expected = PROBE_COUNTS[mode]
        counts = []
        for spec, args in PROBE_GRID:
            clocks.clear()
            GPUDevice(spec).run_matmul(*args, **kwargs(spec))
            assert len(clocks) == len(set(clocks))
            counts.append(len(clocks))
        assert counts == expected
