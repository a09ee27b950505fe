"""NumPy-vectorized batch evaluation backend for the GPU model.

The scalar reference path (:meth:`repro.simgpu.device.GPUDevice.run_matmul`)
walks one ``(N, BS, G, R)`` configuration at a time through the
kernel-resource model, the occupancy calculator, the pipeline timing
model, the DVFS solver and the component power model.  A full sweep
re-enters that Python pipeline once per configuration, so interpreter
overhead — not the model mathematics — dominates sweep wall-clock.

This module evaluates an *array* of configurations in one pass:

* the launch bounds, the traffic, resource and residency terms, the
  clock-free terms and the clock probe are the scalar model's own
  functions (:mod:`repro.simgpu.kernel`, :mod:`repro.simgpu.memhier`,
  :mod:`repro.simgpu.occupancy`, :mod:`repro.simgpu.power`), each
  called once on arrays over the config axis;
* the DVFS power-cap bisection (:mod:`repro.simgpu.dvfs`) runs as a
  *masked lockstep* bisection: every lane follows exactly the scalar
  solver's schedule — same initial bracket, same midpoint updates,
  same early-exit tolerance test — and freezes once converged;
* the calibration may vary per lane, so one call serves several
  calibrations of a device (see below).

**Parity contract.**  Every per-configuration and per-clock
expression is the scalar model's own, with ``np.ceil``, ``np.minimum``
and ``np.maximum`` for its ``math.ceil``, ``min`` and scalar maximum.
What still differs is NumPy's SIMD ``pow``/``exp`` kernels, which may
differ from libm by ~1 ulp on an array operand, and the DVFS
schedules, the scalar bisection against the masked lockstep of
:func:`_evaluate_lanes`.  All branch decisions
(power-cap comparisons, bisection early exit) compare against
tolerances ≥ 0.25 W, twelve orders of magnitude above that noise, so
the vectorized solver takes the same branch sequence as the scalar
solver and the final ``(time, energy)`` agree to ≤ 1e-9 relative
error (``tests/test_batch_backend.py`` enforces this over the full
K40c and P100 configuration spaces, the probe's outputs to 1e-14 and
the traffic, resource and residency terms bit for bit).
Quantities that must be *exact* — warp-row counts, the auxiliary
decay — are computed per unique input value with the scalar functions
and broadcast, not re-derived in floating point.

Calibration columns change no lane's bits.  IEEE ``+ − × ÷`` round
correctly, so ``c * a[i]`` with a scalar ``c`` and ``col[i] * a[i]``
with ``col[i] == c`` are the same double; every expression keeps its
operation order whether a constant is a scalar or a column, so a lane
of a several-calibration call equals the same lane of its own
one-calibration call bit for bit.  A constant all lanes share stays a
Python float, so a one-calibration call runs exactly the arithmetic it
always did.  ``pow`` is the exception: a scalar clock's ``x ** e`` is
a libm call, while an exponent column would send it to NumPy's SIMD
array ``pow``, which differs from libm in the last bit on some inputs;
an array base with a scalar exponent also takes NumPy's fast paths
(``a ** 2.0`` is a square) that an exponent column would bypass.
Hence a call whose lanes disagree on an exponent is rejected, and
callers group lanes by their exponents.

The scalar path remains the model of record: the golden snapshots and
the parity tests compare this batch against it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from repro import obs
from repro.machines.specs import GPUSpec
from repro.simgpu.calibration import GPUCalibration, calibration_for
from repro.simgpu.dvfs import MIN_CLOCK_FRACTION
from repro.simgpu.kernel import (
    avg_rows_per_warp,
    check_launch,
    group_fits,
    resource_terms,
    tile_fits,
)
from repro.simgpu.memhier import TrafficModel, traffic_terms
from repro.simgpu.occupancy import residency
from repro.simgpu.power import aux_decay, clock_free_terms, probe

__all__ = ["BatchRunResult", "batch_run_matmul"]


@dataclass(frozen=True)
class BatchRunResult:
    """Modelled outcome of a batch of ``(N, BS, G, R)`` kernel runs.

    Index ``i`` of every array corresponds to configuration ``i`` of
    the (broadcast) input arrays; the quantities match the scalar
    :class:`repro.simgpu.device.KernelRunResult` fields of the same
    name to ≤ 1e-9 relative error.
    """

    time_s: np.ndarray
    dynamic_energy_j: np.ndarray
    dynamic_power_w: np.ndarray
    clock_hz: np.ndarray
    throttled: np.ndarray

    def __len__(self) -> int:
        return len(self.time_s)


#: Calibration constants that enter the model only through IEEE
#: ``+ − × ÷`` and comparisons: a call may give each lane its own value.
_COLUMN_FIELDS = (
    "lsu_lanes", "cpi", "replay_slope", "mem_latency_cycles",
    "l2_hit_cap", "warps_to_saturate_bw", "launch_overhead_s",
    "icache_penalty", "e_lane_j", "e_dram_j_per_byte", "p_act0_w",
    "p_act1_w", "leak_quad", "aux_power_w", "power_cap_w",
    "thermal_tau_s",
)
#: ``pow`` exponents: one value per call (module docstring).
_EXPONENT_FIELDS = ("volt_exp", "occ_exp")
#: The spec and calibration constants a lane carries for the probe and
#: the DVFS schedule.
_SPEC_FIELDS = ("mem_bandwidth_bps", "sm_count", "base_clock_hz")
_CAL_FIELDS = (
    "mem_latency_cycles", "launch_overhead_s", "e_lane_j",
    "e_dram_j_per_byte", "leak_quad", "power_cap_w", "thermal_tau_s",
    "volt_exp",
)


class _LaneConstants:
    """Clock-independent per-configuration arrays.

    A plain container of the fields :func:`repro.simgpu.power.probe`
    reads, as ``device._KernelTerms`` holds them for one
    configuration, plus ``r``, ``power_cap_w`` and ``thermal_tau_s``
    for the DVFS schedule.  Each calibration constant is a per-lane
    column, or a Python float when every lane shares it (always so for
    ``volt_exp``).
    """

    __slots__ = (
        "g", "r", "compute_cycles", "tile_fetch_bytes", "t_dram",
        "sm_steps", "blocks_per_sm", "lanes_issued", "dram_bytes",
        "activity_base_w", "aux_windows_w",
    ) + _SPEC_FIELDS + _CAL_FIELDS

    def __init__(self, **kw: np.ndarray | float) -> None:
        for name in self.__slots__:
            setattr(self, name, kw[name])


def _per_unique(values: np.ndarray, fn) -> np.ndarray:
    """Apply scalar ``fn`` once per unique int value and broadcast.

    Used for quantities whose scalar computation is not a pure float
    expression (loops, table-like functions): evaluating the *scalar*
    function guarantees exact parity at negligible cost because the
    sweep axes take few distinct values.
    """
    uniq, inverse = np.unique(values, return_inverse=True)
    table = np.array([fn(int(v)) for v in uniq], dtype=np.float64)
    return table[inverse]


_ROWS_TABLES: dict[tuple[int, int], np.ndarray] = {}


def _rows_table(warp_size: int, bs_max: int) -> np.ndarray:
    """``avg_rows_per_warp`` for BS = 1..bs_max, indexable by BS."""
    key = (warp_size, bs_max)
    table = _ROWS_TABLES.get(key)
    if table is None:
        table = np.array(
            [0.0]
            + [avg_rows_per_warp(b, warp_size) for b in range(1, bs_max + 1)],
            dtype=np.float64,
        )
        _ROWS_TABLES[key] = table
    return table


def _validate(
    spec: GPUSpec, n: np.ndarray, bs: np.ndarray, g: np.ndarray, r: np.ndarray
) -> None:
    """Reject configurations the scalar path would reject.

    Finds the first offending lane with the scalar model's own bounds
    (:func:`~repro.simgpu.kernel.tile_fits`,
    :func:`~repro.simgpu.kernel.group_fits`) and raises its error from
    :func:`~repro.simgpu.kernel.check_launch`.
    """
    if (r < 1).any():
        raise ValueError("R must be at least 1")
    bad = (n < 1) | ~tile_fits(spec, bs)
    if not bad.any():  # G is bounded only for a valid BS
        bad = ~group_fits(spec, bs, g, np.minimum)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        check_launch(spec, int(n[i]), int(bs[i]), int(g[i]))


def _calibration_columns(
    runs: Sequence[tuple[GPUCalibration, int]], lanes: int
) -> GPUCalibration | SimpleNamespace:
    """One calibration view of ``(calibration, lane count)`` runs.

    The runs cover the lanes in order.  When they all share one
    calibration, that calibration is the view.  Otherwise each
    :data:`_COLUMN_FIELDS` constant the runs share stays a Python
    float and each one they disagree on becomes a float64 column of
    per-lane values.

    Raises
    ------
    ValueError
        If the runs do not cover ``lanes`` lanes, or disagree on an
        exponent (:data:`_EXPONENT_FIELDS`).
    """
    cals = [cal for cal, _ in runs]
    counts = [count for _, count in runs]
    if sum(counts) != lanes:
        raise ValueError(
            f"calibration runs cover {sum(counts)} lanes, the batch has "
            f"{lanes}"
        )
    first = cals[0]
    if all(cal == first for cal in cals):
        return first
    for name in _EXPONENT_FIELDS:
        if any(getattr(cal, name) != getattr(first, name) for cal in cals):
            raise ValueError(
                f"lanes disagree on {name}, a pow exponent: evaluate "
                f"each value in its own batch_run_matmul call"
            )
    view = {name: getattr(first, name) for name in _EXPONENT_FIELDS}
    for name in _COLUMN_FIELDS:
        values = [getattr(cal, name) for cal in cals]
        if values.count(values[0]) == len(values):
            view[name] = values[0]
        else:
            view[name] = np.repeat(np.array(values, dtype=np.float64), counts)
    return SimpleNamespace(**view)


def _lane_constants(
    spec: GPUSpec,
    cal: GPUCalibration | SimpleNamespace,
    n: np.ndarray,
    bs: np.ndarray,
    g: np.ndarray,
    r: np.ndarray,
) -> _LaneConstants:
    """The scalar model's traffic, resource, residency and clock-free
    terms, each of its functions called once on the lanes' arrays.

    ``cal`` is a calibration or a :func:`_calibration_columns` view;
    each constant enters the same expression whether it is a Python
    float or a per-lane column.
    """
    traffic = TrafficModel(
        *traffic_terms(spec, n, bs, cal.l2_hit_cap, np.ceil, np.minimum)
    )
    rows = _rows_table(spec.warp_size, int(bs.max()))[bs]
    (threads, smem, grid_blocks, ksteps, compute_cycles, tile_fetch,
     dram_bytes, lanes_issued, _, _) = resource_terms(
        spec, cal, n, bs, g, rows, traffic, np.ceil
    )
    *_, blocks, active_warps, warp_occ = residency(
        spec, threads, smem, np.ceil, np.minimum
    )
    if n[0] == n[-1] and (n == n[0]).all():  # the common one-N sweep
        decay = aux_decay(spec, int(n[0]))
    else:
        decay = _per_unique(n, lambda v: aux_decay(spec, v))
    g_f = g.astype(np.float64)
    sm_steps, t_dram, activity_base_w, aux_windows_w = clock_free_terms(
        spec, cal, grid_blocks, ksteps, dram_bytes, g_f, active_warps,
        warp_occ, decay, np.ceil, np.minimum,
    )

    return _LaneConstants(
        g=g_f,
        r=r.astype(np.float64),
        compute_cycles=compute_cycles,
        tile_fetch_bytes=tile_fetch,
        t_dram=t_dram,
        sm_steps=sm_steps,
        blocks_per_sm=blocks,
        lanes_issued=lanes_issued,
        dram_bytes=dram_bytes,
        activity_base_w=activity_base_w,
        aux_windows_w=aux_windows_w,
        **{name: getattr(spec, name) for name in _SPEC_FIELDS},
        **{name: getattr(cal, name) for name in _CAL_FIELDS},
    )


def _evaluate_lanes(
    spec: GPUSpec,
    k: _LaneConstants,
    *,
    tol_w: float = 0.25,
    max_iter: int = 60,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(dynamic_w, launch_time_s, clock_hz, throttled)`` per lane.

    Lockstep transcription of ``solve_operating_clock`` plus the
    thermal-inertia blend of ``run_matmul``: lanes whose boost power
    fits the cap run at boost; the rest bisect the cap in parallel,
    each lane freezing at the iteration where the scalar solver's
    early-exit test (``|P - cap| ≤ tol_w``) first fires for it.

    The boost/floor probes and the non-autoboost path pass the clock
    as a Python float, so their ``pow`` calls go through libm exactly
    like the scalar path's — lanes that never throttle reuse the boost
    probe bit for bit, and only over-cap lanes are re-evaluated at
    their blended per-lane operating clocks.
    """
    m = len(k.g)
    if not spec.has_autoboost:
        base = spec.base_clock_hz
        dyn, _, tl, _, _ = probe(k, base, np.maximum)
        return dyn, tl, np.full(m, base), np.zeros(m, dtype=bool)

    boost = spec.boost_clock_hz
    dyn, _, tl, _, _ = probe(k, boost, np.maximum)
    p_boost = spec.idle_power_w + dyn
    clock = np.full(m, boost)
    throttled = np.zeros(m, dtype=bool)

    over = p_boost > k.power_cap_w
    if over.any():
        idx = np.flatnonzero(over)
        sub = _gather(k, idx)
        lo0 = MIN_CLOCK_FRACTION * spec.base_clock_hz
        p_lo = spec.idle_power_w + probe(sub, lo0, np.maximum)[0]

        cap_clock = np.full(len(idx), lo0)  # floor lanes keep lo0
        bisect = p_lo < sub.power_cap_w
        if bisect.any():
            bidx = np.flatnonzero(bisect)
            kb = _gather(sub, bidx)
            m_b = len(bidx)
            lo = np.full(m_b, lo0)
            hi = np.full(m_b, boost)
            out = np.empty(m_b)
            done = np.zeros(m_b, dtype=bool)
            for _ in range(max_iter):
                mid = 0.5 * (lo + hi)
                dyn_mid = probe(kb, mid, np.maximum)[0]
                gap = (spec.idle_power_w + dyn_mid) - kb.power_cap_w
                hit = ~done & (np.abs(gap) <= tol_w)
                np.copyto(out, mid, where=hit)
                done |= hit
                # Bracket updates are unconditional: converged lanes'
                # brackets no longer matter (their midpoint is frozen
                # in ``out``), and live lanes see the scalar schedule.
                np.copyto(hi, mid, where=gap > 0.0)
                np.copyto(lo, mid, where=gap <= 0.0)
                if done.all():
                    break
            np.copyto(out, 0.5 * (lo + hi), where=~done)
            cap_clock[bidx] = out

        # Thermal inertia: blend the capped clock toward boost by the
        # heat-soak fraction of the R-launch sequence (run_matmul).
        total_boost_s = sub.r * tl[idx]
        soak = 1.0 - np.exp(-total_boost_s / sub.thermal_tau_s)
        sub_clock = boost * (1.0 - soak) + cap_clock * soak
        clock[idx] = sub_clock
        throttled[idx] = soak > 0.5
        dyn_sub, _, tl_sub, _, _ = probe(sub, sub_clock, np.maximum)
        dyn[idx] = dyn_sub
        tl[idx] = tl_sub
    return dyn, tl, clock, throttled


def _gather(k: _LaneConstants, idx: np.ndarray) -> _LaneConstants:
    """Lanes ``idx`` of ``k``; a constant every lane shares passes
    through as the same Python float."""
    kw = {}
    for name in _LaneConstants.__slots__:
        value = getattr(k, name)
        kw[name] = value[idx] if isinstance(value, np.ndarray) else value
    return _LaneConstants(**kw)


def batch_run_matmul(
    spec: GPUSpec,
    cal: GPUCalibration | Sequence[tuple[GPUCalibration, int]] | None,
    n,
    bs,
    g,
    r,
) -> BatchRunResult:
    """Model a batch of ``(N, BS, G, R)`` kernel-run configurations.

    ``n``/``bs``/``g``/``r`` are broadcastable integer array-likes;
    the result arrays follow the flattened broadcast shape.  ``cal`` is
    the calibration of every lane (None: the spec's default), or a
    sequence of ``(calibration, lane count)`` runs that cover the lanes
    in order, so that one call evaluates several calibrations of a
    device; each lane is then bit-identical to the same lane evaluated
    under its own calibration alone.  Matches the deterministic scalar
    path (``run_matmul`` with no noise RNG, no pinned clock) to ≤ 1e-9
    relative error per lane.  An empty batch gives an empty result.

    Raises
    ------
    ValueError
        If any lane is a configuration the scalar path would reject,
        the runs do not cover the lanes, or the runs disagree on
        ``volt_exp`` or ``occ_exp``.
    """
    if cal is None:
        cal = calibration_for(spec)
    n = np.atleast_1d(np.asarray(n, dtype=np.int64))
    bs = np.atleast_1d(np.asarray(bs, dtype=np.int64))
    g = np.atleast_1d(np.asarray(g, dtype=np.int64))
    r = np.atleast_1d(np.asarray(r, dtype=np.int64))
    if not (n.shape == bs.shape == g.shape == r.shape):
        n, bs, g, r = (np.ravel(a) for a in np.broadcast_arrays(n, bs, g, r))
    else:
        n, bs, g, r = (np.ravel(a) for a in (n, bs, g, r))
    _validate(spec, n, bs, g, r)
    lanes = int(n.size)
    if not lanes:
        return BatchRunResult(
            time_s=np.empty(0),
            dynamic_energy_j=np.empty(0),
            dynamic_power_w=np.empty(0),
            clock_hz=np.empty(0),
            throttled=np.empty(0, dtype=bool),
        )
    if not isinstance(cal, GPUCalibration):
        cal = _calibration_columns(cal, lanes)
    with obs.span("batch.run_matmul", device=spec.name, lanes=lanes):
        k = _lane_constants(spec, cal, n, bs, g, r)
        dynamic_w, t_launch, clock, throttled = _evaluate_lanes(spec, k)
        time_s = k.r * t_launch
        energy_j = dynamic_w * time_s
    obs.count("batch.calls")
    obs.count("batch.points", lanes)
    return BatchRunResult(
        time_s=time_s,
        dynamic_energy_j=energy_j,
        dynamic_power_w=dynamic_w,
        clock_hz=clock,
        throttled=throttled,
    )
