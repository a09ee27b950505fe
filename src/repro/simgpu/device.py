"""GPU device facade: run the blocked matmul and report (time, energy).

:class:`GPUDevice` ties the pieces together:

``(N, BS, G, R)`` → kernel resources → occupancy → per-tile-step
pipeline timing → DVFS operating point → component power → the
``(execution time, dynamic energy)`` pair the paper measures for each
application configuration.

The timing model (per tile step, per block, in core cycles):

* ``compute`` — shared-load-bound issue cycles
  (:mod:`repro.simgpu.kernel`);
* ``mem`` — global-memory latency plus tile transfer at the SM's
  bandwidth share;
* the kernel is *not* double-buffered (load → sync → compute → sync),
  so one block's tile-load latency can only hide under *other* resident
  blocks' compute.  With ``c`` resident blocks the steady-state cycles
  per tile step per block are ``max(compute, (compute + mem)/c)`` —
  issue-bound once ``c·compute`` covers the load phase, latency-bound
  otherwise.  Occupancy therefore buys time only while there is latency
  left to hide; beyond that, extra resident warps cost activity power
  for no speedup — one of the paper's nonproportionality mechanisms.

A whole-launch DRAM roofline (bandwidth saturating with resident
warps) bounds the result from below.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from repro.machines.specs import GPUSpec
from repro.simgpu.calibration import GPUCalibration, calibration_for
from repro.simgpu.dvfs import solve_operating_clock
from repro.simgpu.kernel import KernelResources, matmul_kernel_resources
from repro.simgpu.occupancy import Occupancy, compute_occupancy
from repro.simgpu.power import (
    PowerBreakdown,
    aux_decay,
    clock_free_terms,
    probe,
    scalar_max,
)

__all__ = ["KernelRunResult", "GPUDevice"]


class KernelRunResult(NamedTuple):
    """Modelled outcome of R launches of a (N, BS, G) kernel.

    ``time_s`` and ``dynamic_energy_j`` cover the CUDA kernel
    invocations only, exactly like the paper's measurements ("the
    dynamic energy and execution time are measured only for the CUDA
    kernel invocations").
    """

    time_s: float
    dynamic_energy_j: float
    dynamic_power_w: float
    clock_hz: float
    throttled: bool
    occupancy: Occupancy
    power: PowerBreakdown
    resources: KernelResources
    #: Number of launches (R) covered by ``time_s``/``dynamic_energy_j``.
    r: int
    #: Time of one product inside a launch, for additivity analysis.
    product_time_s: float


class _KernelTerms:
    """The clock-independent terms of one ``run_matmul`` call.

    A plain container of the fields :func:`repro.simgpu.power.probe`
    reads, each read or computed once here, so a DVFS probe does only
    the clock-dependent arithmetic.  :meth:`at` evaluates each
    distinct clock once and returns the same tuple on a repeat; the
    memo lives as long as the call, never across calls.
    """

    __slots__ = (
        "mem_bandwidth_bps", "sm_count", "base_clock_hz", "idle_power_w",
        "mem_latency_cycles", "launch_overhead_s", "e_lane_j",
        "e_dram_j_per_byte", "leak_quad", "volt_exp", "blocks_per_sm",
        "compute_cycles", "tile_fetch_bytes", "g", "lanes_issued",
        "dram_bytes", "sm_steps", "t_dram", "activity_base_w",
        "aux_windows_w", "evaluated",
    )

    def __init__(
        self,
        spec: GPUSpec,
        cal: GPUCalibration,
        res: KernelResources,
        occ: Occupancy,
    ) -> None:
        # The constants a probe reads, looked up once per call.
        self.mem_bandwidth_bps = spec.mem_bandwidth_bps
        self.sm_count = spec.sm_count
        self.base_clock_hz = spec.base_clock_hz
        self.idle_power_w = spec.idle_power_w
        self.mem_latency_cycles = cal.mem_latency_cycles
        self.launch_overhead_s = cal.launch_overhead_s
        self.e_lane_j = cal.e_lane_j
        self.e_dram_j_per_byte = cal.e_dram_j_per_byte
        self.leak_quad = cal.leak_quad
        self.volt_exp = cal.volt_exp
        self.blocks_per_sm = occ.blocks_per_sm
        self.compute_cycles = res.compute_cycles_per_kstep
        self.tile_fetch_bytes = res.tile_fetch_bytes
        self.g = res.g
        self.lanes_issued = res.lanes_issued
        self.dram_bytes = res.total_dram_bytes
        (self.sm_steps, self.t_dram, self.activity_base_w,
         self.aux_windows_w) = clock_free_terms(
            spec, cal, res.grid_blocks, res.ksteps_per_product,
            res.total_dram_bytes, res.g, occ.active_warps_per_sm,
            occ.warp_occupancy, aux_decay(spec, res.n), math.ceil, min,
        )
        self.evaluated: dict[float, tuple] = {}

    def at(self, clock_hz: float) -> tuple:
        """``(board_w, dynamic_w, product_s, launch_s, components)``.

        The :func:`~repro.simgpu.power.probe` at ``clock_hz``;
        ``board_w`` adds the idle power the DVFS solver compares
        against the cap.
        """
        ev = self.evaluated.get(clock_hz)
        if ev is not None:
            return ev
        dynamic_w, t_product, t_launch, components, _ = probe(
            self, clock_hz, scalar_max
        )
        ev = self.evaluated[clock_hz] = (
            self.idle_power_w + dynamic_w,
            dynamic_w,
            t_product,
            t_launch,
            components,
        )
        return ev


#: Bounds of the device tables: at most this many ``(spec, cal)`` pairs
#: (the oldest pair's table is dropped first) ...
DEVICE_TABLES = 64
#: ... and at most this many ``(n, bs, g)`` entries per table (a full
#: table is emptied).
DEVICE_TABLE_SIZE = 4096

#: ``(spec, cal)`` -> that pair's device table: ``(n, bs, g)`` ->
#: ``(KernelResources, Occupancy)`` (docs/MODEL.md §1.9).
_device_tables: dict[tuple[GPUSpec, GPUCalibration], dict] = {}


def _device_table(spec: GPUSpec, cal: GPUCalibration) -> dict:
    """The device table of ``(spec, cal)``, shared by every device built
    with an equal pair; the one place a device hashes its spec and
    calibration."""
    table = _device_tables.get((spec, cal))
    if table is None:
        if len(_device_tables) >= DEVICE_TABLES:
            del _device_tables[next(iter(_device_tables))]
        table = _device_tables[spec, cal] = {}
    return table


class GPUDevice:
    """Analytical model of one GPU running the paper's matmul kernel.

    Parameters
    ----------
    spec:
        Machine specification (``repro.machines.K40C`` or ``P100``).
    cal:
        Calibration constants; defaults to the device's calibration.

    A device resolves its ``(spec, cal)`` pair's table once, when it is
    built: :meth:`run_matmul` finds a configuration's kernel resources
    and occupancy there by ``(n, bs, g)``, and builds them through
    :func:`matmul_kernel_resources` and the memoized
    :func:`compute_occupancy` only on a miss.
    """

    def __init__(self, spec: GPUSpec, cal: GPUCalibration | None = None) -> None:
        self.spec = spec
        self.cal = cal if cal is not None else calibration_for(spec)
        self._table = _device_table(self.spec, self.cal)

    def _records(self, n: int, bs: int, g: int) -> tuple:
        """``(KernelResources, Occupancy)`` of ``(n, bs, g)``, a table
        miss: built and entered."""
        spec, table = self.spec, self._table
        res = matmul_kernel_resources(spec, self.cal, n, bs, g)
        occ = compute_occupancy(
            spec, res.threads_per_block, res.smem_per_block_bytes
        )
        if len(table) >= DEVICE_TABLE_SIZE:
            table.clear()
        table[n, bs, g] = records = (res, occ)
        return records

    def run_matmul(
        self,
        n: int,
        bs: int,
        g: int = 1,
        r: int = 1,
        *,
        rng: np.random.Generator | None = None,
        fixed_clock: bool = False,
        pinned_clock_hz: float | None = None,
    ) -> KernelRunResult:
        """Model R launches of the (N, BS, G) kernel.

        With ``rng`` given, applies run-to-run execution-time jitter
        (calibrated 1-sigma ``time_jitter``) and a smaller independent
        power jitter, modelling OS/driver noise — the variation the
        paper's Student-t protocol averages away.

        ``fixed_clock=True`` pins the core clock to the base clock
        (``nvidia-smi -ac`` style), disabling autoboost and the power
        cap — the standard practice for profiling/additivity studies
        where clock wander would confound the measurement.
        ``pinned_clock_hz`` pins an arbitrary application clock from
        the part's ladder instead; it must lie within [40% of base,
        boost].  A pin is a *maximum*: on an autoboost part a pin whose
        board power exceeds the cap is throttled like autoboost, and
        the run never reports a clock above the pin.
        """
        spec, cal = self.spec, self.cal
        if r < 1:
            raise ValueError("R must be at least 1")
        if pinned_clock_hz is not None:
            lo = 0.4 * spec.base_clock_hz
            hi = spec.boost_clock_hz
            if not (lo <= pinned_clock_hz <= hi):
                raise ValueError(
                    f"pinned clock {pinned_clock_hz/1e6:.0f} MHz outside "
                    f"the supported ladder [{lo/1e6:.0f}, {hi/1e6:.0f}] MHz"
                )
        records = self._table.get((n, bs, g))
        if records is None:
            records = self._records(n, bs, g)
        res, occ = records
        at = _KernelTerms(spec, cal, res, occ).at

        def board_power(clock_hz: float) -> float:
            return at(clock_hz)[0]

        # ``start_hz`` is the clock a throttled run starts from before
        # it heat-soaks: the pinned clock if there is one, else boost.
        start_hz = spec.boost_clock_hz
        if pinned_clock_hz is not None:
            # An application clock is a *maximum*: the power cap still
            # applies, so a hot pin above the sustainable clock gets
            # throttled down exactly like autoboost would be.
            start_hz = clock_hz = pinned_clock_hz
            throttled = spec.has_autoboost and (
                board_power(pinned_clock_hz) > cal.power_cap_w
            )
            if throttled:
                op = solve_operating_clock(spec, cal, board_power)
                clock_hz = min(op.clock_hz, pinned_clock_hz)
        elif fixed_clock:
            clock_hz, throttled = spec.base_clock_hz, False
        else:
            op = solve_operating_clock(spec, cal, board_power)
            clock_hz, throttled = op.clock_hz, op.throttled
        if throttled:
            # Thermal inertia: throttling only takes hold once the die
            # heat-soaks.  A measurement sequence much shorter than the
            # thermal time constant runs (mostly) at its starting clock
            # at full voltage; long sequences settle at the cap.  Blend
            # the operating clock by the heat-soak fraction.
            launch_at_start_s = at(start_hz)[3]
            total_start_s = r * launch_at_start_s
            soak = 1.0 - math.exp(-total_start_s / cal.thermal_tau_s)
            clock_hz = start_hz * (1.0 - soak) + clock_hz * soak
            throttled = soak > 0.5
        _, dynamic_w, t_product, t_launch, components = at(clock_hz)
        power = PowerBreakdown(*components)

        time_s = r * t_launch
        energy_j = dynamic_w * time_s
        if rng is not None:
            tj = cal.time_jitter
            time_s *= max(0.5, 1.0 + tj * rng.standard_normal())
            energy_j = dynamic_w * time_s
            energy_j *= max(0.5, 1.0 + 0.4 * tj * rng.standard_normal())

        return KernelRunResult(
            time_s, energy_j, dynamic_w, clock_hz, throttled, occ, power, res,
            r, t_product,
        )

    def performance_gflops(self, result: KernelRunResult) -> float:
        """Useful double-precision GFLOP/s of a modelled run."""
        if result.time_s <= 0:
            return 0.0
        return result.r * result.resources.useful_flops / result.time_s / 1e9
