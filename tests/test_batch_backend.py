"""Parity and wiring tests for the vectorized batch backend.

The contract under test (``repro.simgpu.batch``): the NumPy batch
evaluation agrees with the scalar reference path
(``GPUDevice.run_matmul``) to ≤ 1e-9 relative error per lane — over
the *full* K40c and P100 configuration spaces, over randomized config
spaces (property-based, seeded), and through the planner
(:class:`repro.sweep.planner.EvalPlanner`), which serves every
sweep-driven command from this batch.  A call over several
calibrations of a device must give every lane the bits of its own
one-calibration call, and a paper-scale sweep must be faster than the
scalar path sweeping it cold.  The scalar path stays the model of
record.
"""

from __future__ import annotations

import dataclasses
import math
import time

import numpy as np
import pytest

from repro.apps.matmul_gpu import MatmulConfig, MatmulGPUApp
from repro.machines.specs import K40C, P100
from repro.simgpu.batch import (
    _COLUMN_FIELDS,
    BatchRunResult,
    _lane_constants,
    _rows_table,
    batch_run_matmul,
)
from repro.simgpu.calibration import calibration_for
from repro.simgpu.device import GPUDevice, _KernelTerms
from repro.simgpu.dvfs import MIN_CLOCK_FRACTION
from repro.simgpu.kernel import (
    avg_rows_per_warp,
    group_fits,
    matmul_kernel_resources,
    max_group_size,
    resource_terms,
    tile_fits,
)
from repro.simgpu.memhier import TrafficModel, traffic_terms
from repro.simgpu.occupancy import compute_occupancy, residency
from repro.simgpu.power import probe, scalar_max
from repro.sweep import EvalPlanner
from repro.sweep.planner import scalar_sweep

PARITY_RTOL = 1e-9


def lane_arrays(n, configs):
    """The ``(n, bs, g, r)`` int64 lane arrays of one sweep's configs."""
    count = len(configs)
    bs = np.fromiter((c.bs for c in configs), dtype=np.int64, count=count)
    g = np.fromiter((c.g for c in configs), dtype=np.int64, count=count)
    r = np.fromiter((c.r for c in configs), dtype=np.int64, count=count)
    return np.full(count, n, dtype=np.int64), bs, g, r


def scalar_reference(spec, cal, n, configs):
    device = GPUDevice(spec, cal)
    return [device.run_matmul(n, c.bs, c.g, c.r) for c in configs]


def assert_batch_matches(spec, cal, n_values, configs, out: BatchRunResult):
    device = GPUDevice(spec, cal)
    assert len(out) == len(configs)
    for i, c in enumerate(configs):
        n = n_values[i] if not isinstance(n_values, int) else n_values
        ref = device.run_matmul(n, c.bs, c.g, c.r)
        assert out.time_s[i] == pytest.approx(ref.time_s, rel=PARITY_RTOL)
        assert out.dynamic_energy_j[i] == pytest.approx(
            ref.dynamic_energy_j, rel=PARITY_RTOL
        )
        assert out.dynamic_power_w[i] == pytest.approx(
            ref.dynamic_power_w, rel=PARITY_RTOL
        )
        assert out.clock_hz[i] == pytest.approx(ref.clock_hz, rel=PARITY_RTOL)
        assert bool(out.throttled[i]) == ref.throttled


class TestFullSpaceParity:
    """≤ 1e-9 agreement over the full default configuration spaces."""

    @pytest.mark.parametrize(
        "spec,n",
        [(P100, 10240), (P100, 18432), (K40C, 10240), (K40C, 16384)],
    )
    def test_full_sweep_parity(self, spec, n):
        app = MatmulGPUApp(spec)
        configs = app.sweep_configs()
        ref = scalar_reference(spec, app.device.cal, n, configs)
        got = batch_run_matmul(
            spec, app.device.cal, *lane_arrays(n, configs)
        )
        assert len(got) == len(configs) == 146
        for t, e, r in zip(got.time_s, got.dynamic_energy_j, ref):
            assert t == pytest.approx(r.time_s, rel=PARITY_RTOL)
            assert e == pytest.approx(r.dynamic_energy_j, rel=PARITY_RTOL)

    def test_full_space_includes_tiny_tiles(self):
        """BS down to 1 (outside the default sweep floor) still agrees."""
        app = MatmulGPUApp(P100)
        configs = app.sweep_configs(min_bs=1)
        assert any(c.bs < 4 for c in configs)
        got = batch_run_matmul(
            P100, app.device.cal, *lane_arrays(1024, configs)
        )
        ref = scalar_reference(P100, app.device.cal, 1024, configs)
        for t, e, r in zip(got.time_s, got.dynamic_energy_j, ref):
            assert t == pytest.approx(r.time_s, rel=PARITY_RTOL)
            assert e == pytest.approx(r.dynamic_energy_j, rel=PARITY_RTOL)


class TestFasterThanScalar:
    """The batch model's reason to exist: a paper-scale P100 sweep is
    faster than the scalar model of record sweeping it cold."""

    @pytest.mark.parametrize("n", [10240, 18432])
    def test_batch_beats_the_cold_scalar_sweep(self, n, cold_scalar_model):
        app = MatmulGPUApp(P100)
        cal = app.device.cal
        configs = app.sweep_enumeration()
        _, bs, g, r = configs.columns
        scalar_s, batch_s = [], []
        for _ in range(5):
            cold_scalar_model()
            t0 = time.perf_counter()
            times, energies = scalar_sweep(P100, cal, n, bs, g, r)
            scalar_s.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            out = batch_run_matmul(P100, cal, *lane_arrays(n, configs))
            batch_s.append(time.perf_counter() - t0)
        deviation = max(
            max(abs(t - ts) / ts, abs(e - es) / es)
            for t, e, ts, es in zip(
                out.time_s.tolist(), out.dynamic_energy_j.tolist(),
                times, energies,
            )
        )
        assert deviation <= PARITY_RTOL
        speedup = min(scalar_s) / min(batch_s)
        assert speedup >= 1.0, (
            f"batch {min(batch_s) * 1e3:.2f} ms vs cold scalar "
            f"{min(scalar_s) * 1e3:.2f} ms ({speedup:.2f}x)"
        )


@pytest.mark.parametrize("seed", range(10))
class TestRandomizedParity:
    """Property-based parity over randomized config spaces.

    Each seed draws a batch of valid ``(N, BS, G, R)`` tuples — mixed
    matrix sizes in one batch (exercising the per-unique-N paths),
    tile sizes over the whole admissible 1..32 range, group sizes up
    to the per-BS shared-memory bound, arbitrary repeat counts — and
    requires every per-lane output field to match the scalar path.
    """

    def draw(self, spec, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 50))
        n = rng.integers(64, 4096, m)
        bs = rng.integers(1, 33, m)
        g = np.array(
            [rng.integers(1, max_group_size(spec, int(b)) + 1) for b in bs]
        )
        r = rng.integers(1, 40, m)
        return n, bs, g, r

    @pytest.mark.parametrize("spec", [P100, K40C], ids=["p100", "k40c"])
    def test_random_batch_parity(self, spec, seed):
        n, bs, g, r = self.draw(spec, seed)
        cal = calibration_for(spec)
        out = batch_run_matmul(spec, cal, n, bs, g, r)
        configs = [
            MatmulConfig(bs=int(b), g=int(gg), r=int(rr))
            for b, gg, rr in zip(bs, g, r)
        ]
        assert_batch_matches(spec, cal, [int(v) for v in n], configs, out)


class TestBatchInputHandling:
    def test_scalar_inputs_become_one_lane(self):
        out = batch_run_matmul(P100, None, 1024, 32, 1, 24)
        ref = GPUDevice(P100).run_matmul(1024, 32, 1, 24)
        assert len(out) == 1
        assert out.time_s[0] == pytest.approx(ref.time_s, rel=PARITY_RTOL)

    def test_broadcasting(self):
        bs = np.array([8, 16, 32])
        out = batch_run_matmul(P100, None, 1024, bs, 1, 24)
        assert len(out) == 3

    def test_default_calibration_matches_explicit(self):
        a = batch_run_matmul(P100, None, 1024, 32, 1, 24)
        b = batch_run_matmul(P100, calibration_for(P100), 1024, 32, 1, 24)
        assert a.time_s[0] == b.time_s[0]

    def test_empty_batch_gives_empty_result(self):
        out = batch_run_matmul(P100, None, [], [], [], [])
        assert len(out) == 0
        for field in dataclasses.fields(out):
            assert getattr(out, field.name).shape == (0,)
        assert out.throttled.dtype == bool

    @pytest.mark.parametrize(
        "n,bs,g,r,match",
        [
            (0, 32, 1, 1, "N must be positive"),
            (1024, 0, 1, 1, "BS=0 invalid"),
            (1024, 33, 1, 1, "BS=33 invalid"),
            (1024, 32, 8, 1, "G=8 not permissible"),
            (1024, 32, 1, 0, "R must be at least 1"),
        ],
    )
    def test_invalid_lanes_rejected(self, n, bs, g, r, match):
        """Every config the scalar path rejects is rejected, even when
        valid lanes surround it in the batch."""
        with pytest.raises(ValueError, match=match):
            batch_run_matmul(
                P100, None, [1024, n], [32, bs], [1, g], [24, r]
            )


def _scaled(cal, name, factor):
    """``cal`` with one constant scaled (an int constant stays int)."""
    value = getattr(cal, name)
    return dataclasses.replace(cal, **{name: type(value)(value * factor)})


def _probe_outputs(terms, clock_hz, maximum):
    """The probe's eight outputs: five components, the dynamic power,
    the product time and the launch time."""
    dynamic_w, t_product, t_launch, components, _ = probe(
        terms, clock_hz, maximum
    )
    return (*components, dynamic_w, t_product, t_launch)


class TestProbeParity:
    """The scalar and batch models probe the same terms: each of the
    probe's outputs agrees to 1e-14 at every clock the DVFS schedules
    visit (all but ~1 ulp of them bit for bit; the rest is NumPy's
    array ``pow`` against libm's in the activity floor's ``ω^k``)."""

    @pytest.mark.parametrize("n", [5120, 18432])
    @pytest.mark.parametrize("spec", [K40C, P100], ids=["k40c", "p100"])
    def test_components_match_at_every_clock(self, spec, n):
        cal = calibration_for(spec)
        configs = [
            (bs, g)
            for bs in range(1, math.isqrt(spec.max_threads_per_block) + 1)
            for g in range(1, max_group_size(spec, bs) + 1)
        ]
        bs, g = (np.array(axis, dtype=np.int64) for axis in zip(*configs))
        lanes = _lane_constants(
            spec, cal, np.full(len(configs), n), bs, g, np.ones_like(bs)
        )
        floor = MIN_CLOCK_FRACTION * spec.base_clock_hz
        clocks = (
            spec.base_clock_hz, spec.boost_clock_hz, floor,
            0.5 * (floor + spec.boost_clock_hz),
        )
        for clock in clocks:
            batch = _probe_outputs(lanes, clock, np.maximum)
            for i, (b, gi) in enumerate(configs):
                res = matmul_kernel_resources(spec, cal, n, b, gi)
                occ = compute_occupancy(
                    spec, res.threads_per_block, res.smem_per_block_bytes
                )
                scalar = _probe_outputs(
                    _KernelTerms(spec, cal, res, occ), clock, scalar_max
                )
                np.testing.assert_allclose(
                    [out[i] for out in batch], scalar, rtol=1e-14, atol=0,
                    err_msg=f"{spec.name} n={n} bs={b} g={gi} f={clock}",
                )


#: The matrix sizes of ``tools/model_fingerprint.py``'s GPU sweep.
FINGERPRINT_SIZES = (1024, 5120, 8704, 10240, 14336, 18432, 30000)


class TestTermParity:
    """The batch model's traffic, resource and residency terms and its
    launch bounds are the scalar model's own functions: for every valid
    BS and G of both GPUs at the fingerprint's seven sizes, each lane
    of one call on int64 arrays (``np.ceil``, ``np.minimum``) equals
    the call on that lane's Python ints (``math.ceil``, ``min``),
    compared with ``==``.  No ``pow`` enters them, so no tolerance is
    needed."""

    @staticmethod
    def _terms(spec, cal, n, bs, g, rows, ceil, minimum):
        traffic = traffic_terms(spec, n, bs, cal.l2_hit_cap, ceil, minimum)
        resources = resource_terms(
            spec, cal, n, bs, g, rows, TrafficModel(*traffic), ceil
        )
        occupancy = residency(spec, *resources[:2], ceil, minimum)
        bounds = (
            max_group_size(spec, bs, minimum=minimum),
            tile_fits(spec, bs),
            group_fits(spec, bs, g, minimum),
        )
        return (*traffic, *resources, *occupancy, *bounds)

    @pytest.mark.parametrize("spec", [K40C, P100], ids=["k40c", "p100"])
    def test_array_lanes_equal_int_calls(self, spec):
        cal = calibration_for(spec)
        grid = [
            (n, bs, g)
            for n in FINGERPRINT_SIZES
            for bs in range(1, math.isqrt(spec.max_threads_per_block) + 1)
            for g in range(1, max_group_size(spec, bs) + 1)
        ]
        n, bs, g = (np.array(axis, dtype=np.int64) for axis in zip(*grid))
        rows = _rows_table(spec.warp_size, int(bs.max()))
        lanes = self._terms(
            spec, cal, n, bs, g, rows[bs], np.ceil, np.minimum
        )
        for i, (ni, bi, gi) in enumerate(grid):
            scalar = self._terms(
                spec, cal, ni, bi, gi, avg_rows_per_warp(bi, spec.warp_size),
                math.ceil, min,
            )
            assert [lane[i] for lane in lanes] == list(scalar), (
                f"{spec.name} n={ni} bs={bi} g={gi}"
            )
        assert all(lanes[-2]) and all(lanes[-1])


class TestCalibrationRuns:
    """One call over ``(calibration, lane count)`` runs, as the planner
    fills a device: every lane keeps the bits of its own
    one-calibration call."""

    @pytest.mark.parametrize("spec", [P100, K40C], ids=["p100", "k40c"])
    def test_lanes_match_their_own_calibration_bit_for_bit(self, spec):
        base = calibration_for(spec)
        cals = [base] + [
            _scaled(base, name, factor)
            for name in _COLUMN_FIELDS
            for factor in (0.8, 1.2)
        ]
        configs = MatmulGPUApp(spec).sweep_configs()
        n = np.repeat([4096, 10240], len(configs))
        bs = np.tile([c.bs for c in configs], 2)
        g = np.tile([c.g for c in configs], 2)
        r = np.tile([c.r for c in configs], 2)
        lanes = len(n)
        out = batch_run_matmul(
            spec, [(cal, lanes) for cal in cals],
            np.tile(n, len(cals)), np.tile(bs, len(cals)),
            np.tile(g, len(cals)), np.tile(r, len(cals)),
        )
        for i, cal in enumerate(cals):
            ref = batch_run_matmul(spec, cal, n, bs, g, r)
            for field in dataclasses.fields(ref):
                got = getattr(out, field.name)[i * lanes:(i + 1) * lanes]
                want = getattr(ref, field.name)
                if want.dtype == np.float64:
                    got, want = got.view(np.int64), want.view(np.int64)
                np.testing.assert_array_equal(got, want, err_msg=field.name)

    @pytest.mark.parametrize("name", ["volt_exp", "occ_exp"])
    def test_lanes_with_mixed_exponents_are_rejected(self, name):
        base = calibration_for(P100)
        other = dataclasses.replace(base, **{name: getattr(base, name) + 0.5})
        with pytest.raises(ValueError, match=f"lanes disagree on {name}"):
            batch_run_matmul(
                P100, [(base, 1), (other, 1)], 1024, 32, 1, [24, 24]
            )

    def test_runs_must_cover_the_lanes(self):
        with pytest.raises(ValueError, match="cover 3 lanes, the batch has 2"):
            batch_run_matmul(
                P100, [(calibration_for(P100), 3)], 1024, 32, 1, [24, 24]
            )


class TestPlannerBackend:
    def test_planner_sweep_matches_scalar_model(self):
        scalar = MatmulGPUApp(P100).sweep_points(10240)
        vec = EvalPlanner().sweep("p100", 10240)
        assert len(scalar) == len(vec)
        for s, v in zip(scalar, vec):
            assert v.config == s.config
            assert v.time_s == pytest.approx(s.time_s, rel=PARITY_RTOL)
            assert v.energy_j == pytest.approx(s.energy_j, rel=PARITY_RTOL)
