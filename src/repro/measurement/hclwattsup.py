"""HCLWattsUp-style energy API over the simulated power meter.

The paper uses the HCLWATTSUP tool [34] "to determine the dynamic and
total energy consumptions" from WattsUp Pro samples, taking "several
precautions ... to eliminate the potential disturbance due to
components such as SSDs and fans".  The essential algorithm:

1. establish the node's idle (static) power baseline by sampling the
   meter while nothing runs;
2. sample the meter during the application run;
3. total energy  = ∫ P(t) dt over the run window;
   static energy = P_idle × run duration;
   dynamic energy = total − static.

:class:`HCLWattsUp` reproduces that pipeline.  Because the baseline is
itself a noisy estimate, dynamic energies inherit realistic measurement
error — which is exactly what the Student-t repetition protocol in
:mod:`repro.measurement.stats` exists to average away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.measurement.powermeter import PowerMeter, PowerPhase, PowerTrace

__all__ = ["EnergyReading", "HCLWattsUp"]


@dataclass(frozen=True)
class EnergyReading:
    """Energies extracted from one measured application run.

    Attributes
    ----------
    total_energy_j:
        Integral of sampled node power over the run window.
    static_energy_j:
        Idle baseline power × run duration.
    dynamic_energy_j:
        ``total − static`` (clamped at zero: sampling noise can push
        tiny dynamic energies slightly negative, which the real tool
        also clamps).
    duration_s:
        Run duration used for the static term.
    baseline_power_w:
        The idle-power estimate used.
    """

    total_energy_j: float
    static_energy_j: float
    dynamic_energy_j: float
    duration_s: float
    baseline_power_w: float


class HCLWattsUp:
    """Dynamic/total energy measurement over a :class:`PowerMeter`.

    Parameters
    ----------
    meter:
        The simulated WattsUp Pro.
    idle_power_w:
        True idle power of the node (the simulator knows it; the tool
        has to *estimate* it by sampling).
    baseline_seconds:
        How long to sample idle power when calibrating the baseline.
        HCLWattsUp samples for tens of seconds before each experiment
        series; longer baselines give tighter dynamic energies.
    """

    def __init__(
        self,
        meter: PowerMeter,
        idle_power_w: float,
        *,
        baseline_seconds: float = 30.0,
    ) -> None:
        if idle_power_w < 0:
            raise ValueError("idle power must be non-negative")
        if baseline_seconds < 2.0:
            raise ValueError("baseline window must be at least 2 seconds")
        self._meter = meter
        self._true_idle_w = idle_power_w
        self._baseline_seconds = baseline_seconds
        self._baseline_w: float | None = None

    @property
    def baseline_power_w(self) -> float:
        """Estimated idle power; calibrated lazily on first use."""
        if self._baseline_w is None:
            self._baseline_w = self._calibrate_baseline()
        return self._baseline_w

    def _calibrate_baseline(self) -> float:
        trace = PowerTrace(
            phases=(PowerPhase(self._baseline_seconds, self._true_idle_w),)
        )
        samples = self._meter.sample_run(trace)
        return float(np.mean([s.power_w for s in samples]))

    def measure(self, trace: PowerTrace) -> EnergyReading:
        """Measure one application run described by ``trace``.

        The trace should cover exactly the run window (HCLWattsUp
        brackets the application with sync markers); its total duration
        is taken as the run duration for the static-energy term.
        """
        samples = self._meter.sample_run(trace)
        interval = self._meter.sample_interval_s
        duration = trace.total_duration_s
        # Rectangle rule, truncated to the run window: the padding the
        # meter adds for very short runs must not inflate the energy.
        total = 0.0
        for s in samples:
            window_start = s.t_s - interval / 2.0
            window_end = s.t_s + interval / 2.0
            covered = max(0.0, min(window_end, duration) - window_start)
            if covered <= 0:
                break
            total += s.power_w * covered
        static = self.baseline_power_w * duration
        dynamic = max(0.0, total - static)
        return EnergyReading(
            total_energy_j=total,
            static_energy_j=static,
            dynamic_energy_j=dynamic,
            duration_s=duration,
            baseline_power_w=self.baseline_power_w,
        )
