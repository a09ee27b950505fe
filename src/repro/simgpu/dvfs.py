"""DVFS boost/power-cap solver.

Autoboosting parts (the P100) raise the core clock to the boost limit
and throttle when predicted board power exceeds the cap.  Board power
is monotone increasing in clock (compute rate ∝ f and per-op energy
∝ f^(volt_exp−1)), so the operating point is found by bisection on f:

* if power at the boost clock is within the cap → run at boost;
* else find f with board power = cap (clamped to a floor of 60% of the
  base clock, below which real parts trip other limits).

Non-boosting parts (the K40c as deployed in the paper's cluster) run
fixed at the base clock.

The solver is generic over an ``evaluate(clock_hz) -> board_power_w``
callable so the device model can capture timing side effects of the
clock (memory-bound kernels gain little speed but still save power when
throttled).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

from repro.machines.specs import GPUSpec
from repro.simgpu.calibration import GPUCalibration

__all__ = ["OperatingPoint", "solve_operating_clock"]

#: Fraction of the base clock below which the solver will not throttle.
#: Real parts step down through a shallow P-state ladder under a power
#: cap; sustained DGEMM-class kernels settle ~15-20% under base at worst.
MIN_CLOCK_FRACTION = 0.8


class OperatingPoint(NamedTuple):
    """Resolved DVFS state for one kernel."""

    clock_hz: float
    board_power_w: float
    throttled: bool


def solve_operating_clock(
    spec: GPUSpec,
    cal: GPUCalibration,
    evaluate_board_power: Callable[[float], float],
    *,
    tol_w: float = 0.25,
    max_iter: int = 60,
) -> OperatingPoint:
    """Find the operating clock under the power cap.

    ``evaluate_board_power(f)`` must return total board power (idle +
    dynamic) for the kernel at core clock ``f`` and must be
    non-decreasing in ``f``.
    """
    if not spec.has_autoboost:
        f = spec.base_clock_hz
        return OperatingPoint(f, evaluate_board_power(f), False)

    hi = spec.boost_clock_hz
    p_hi = evaluate_board_power(hi)
    if p_hi <= cal.power_cap_w:
        return OperatingPoint(hi, p_hi, False)

    lo = MIN_CLOCK_FRACTION * spec.base_clock_hz
    p_lo = evaluate_board_power(lo)
    if p_lo >= cal.power_cap_w:
        # Even the floor clock exceeds the cap; run at the floor (real
        # parts would trip thermal protection, but the sweep should not
        # crash on a pathological calibration).
        return OperatingPoint(lo, p_lo, True)

    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        p_mid = evaluate_board_power(mid)
        if abs(p_mid - cal.power_cap_w) <= tol_w:
            return OperatingPoint(mid, p_mid, True)
        if p_mid > cal.power_cap_w:
            hi = mid
        else:
            lo = mid
    mid = 0.5 * (lo + hi)
    return OperatingPoint(mid, evaluate_board_power(mid), True)
