"""WattsUp Pro power-meter simulation.

The paper measures energy with a WattsUp Pro meter sitting "between the
wall A/C outlets and the input power sockets of the node", sampled over
a serial USB interface by a Perl script (Section V).  The meter reports
total node power about once per second with ±1.5% accuracy and 0.1 W
display resolution.

:class:`PowerMeter` reproduces that measurement channel over a
simulated power trace:

* the *true* node power is a piecewise-constant function of time
  supplied as a :class:`PowerTrace` (idle baseline plus the device's
  activity phases);
* the meter samples it at a fixed interval (default 1 s), applying
  multiplicative Gaussian sensor noise and 0.1 W quantization;
* :meth:`PowerMeter.sample_run` returns the sample series a logging
  script would capture for one application run, from which the
  HCLWattsUp layer computes energies.

Everything is deterministic given the RNG seed, so the statistical
protocol on top behaves like the paper's: repeated runs of the same
configuration give noisy-but-converging sample means.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PowerPhase", "PowerTrace", "PowerSample", "PowerMeter"]


@dataclass(frozen=True)
class PowerPhase:
    """One piecewise-constant segment of true node power.

    Attributes
    ----------
    duration_s:
        Length of the phase in seconds (strictly positive).
    power_w:
        True total node power during the phase, in watts — i.e. idle
        baseline plus the dynamic power of whatever is running.
    """

    duration_s: float
    power_w: float

    def __post_init__(self) -> None:
        if self.duration_s <= 0:
            raise ValueError("phase duration must be positive")
        if self.power_w < 0:
            raise ValueError("phase power must be non-negative")


@dataclass(frozen=True)
class PowerTrace:
    """A sequence of power phases describing one application run.

    The trace typically looks like: pre-run idle, kernel-active phase
    (possibly several, e.g. one per kernel group), post-run idle.
    """

    phases: tuple[PowerPhase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError("trace needs at least one phase")

    @property
    def total_duration_s(self) -> float:
        return sum(p.duration_s for p in self.phases)

    def power_at(self, t: float) -> float:
        """True instantaneous power at time ``t`` from trace start."""
        if t < 0:
            raise ValueError("time must be non-negative")
        elapsed = 0.0
        for phase in self.phases:
            elapsed += phase.duration_s
            if t < elapsed:
                return phase.power_w
        return self.phases[-1].power_w

    def true_energy_j(self) -> float:
        """Exact energy under the trace (ground truth for tests)."""
        return sum(p.duration_s * p.power_w for p in self.phases)


@dataclass(frozen=True)
class PowerSample:
    """One logged meter reading."""

    t_s: float
    power_w: float


@dataclass
class PowerMeter:
    """Simulated WattsUp Pro meter.

    Attributes
    ----------
    sample_interval_s:
        Meter logging interval; the WattsUp Pro reports ~1 Hz.
    noise_fraction:
        1-sigma multiplicative sensor noise; the WattsUp Pro is
        specified at ±1.5% accuracy, which we treat as ~3 sigma.
    quantization_w:
        Display/serial resolution (0.1 W on the WattsUp Pro).
    dropout_probability:
        Probability that a sample is lost on the serial link (the real
        logging script observes occasional missing lines); lost samples
        are reported by repeating the previous reading, exactly what
        the HCLWattsUp collection script does.
    stuck_probability:
        Probability that the meter's display freezes for one interval
        (reports the prior value despite new input) — a documented
        WattsUp firmware quirk.  Both failure modes default to off.
    rng:
        Seeded generator; runs are reproducible and independent draws
        model run-to-run measurement variation.
    """

    sample_interval_s: float = 1.0
    noise_fraction: float = 0.005
    quantization_w: float = 0.1
    dropout_probability: float = 0.0
    stuck_probability: float = 0.0
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )

    def __post_init__(self) -> None:
        if self.sample_interval_s <= 0:
            raise ValueError("sample interval must be positive")
        if self.noise_fraction < 0:
            raise ValueError("noise fraction must be non-negative")
        if self.quantization_w < 0:
            raise ValueError("quantization must be non-negative")
        for name in ("dropout_probability", "stuck_probability"):
            p = getattr(self, name)
            if not (0.0 <= p < 1.0):
                raise ValueError(f"{name} must lie in [0, 1)")

    def sample_run(self, trace: PowerTrace) -> list[PowerSample]:
        """Log one application run; returns ≥ 2 samples.

        Samples are taken at the midpoint of each logging interval (the
        meter integrates internally over its reporting window), with
        sensor noise and quantization applied.  Short traces are padded
        by continuing the final phase so at least two samples exist —
        mirroring how the real logging script keeps sampling until told
        to stop.
        """
        duration = max(trace.total_duration_s, 2 * self.sample_interval_s)
        n = int(np.ceil(duration / self.sample_interval_s))
        times = (np.arange(n) + 0.5) * self.sample_interval_s
        true = np.array([trace.power_at(t) for t in times])
        if self.noise_fraction > 0:
            noisy = true * (1.0 + self.rng.normal(0.0, self.noise_fraction, n))
        else:
            noisy = true.copy()
        noisy = np.maximum(noisy, 0.0)
        if self.quantization_w > 0:
            noisy = np.round(noisy / self.quantization_w) * self.quantization_w
        if self.dropout_probability > 0 or self.stuck_probability > 0:
            fail = self.rng.random(n) < (
                self.dropout_probability + self.stuck_probability
            )
            fail[0] = False  # the first sample always arrives
            for i in range(1, n):
                if fail[i]:
                    noisy[i] = noisy[i - 1]  # hold the previous reading
        return [PowerSample(float(t), float(p)) for t, p in zip(times, noisy)]

    def measure_energy_j(self, trace: PowerTrace) -> float:
        """Convenience: rectangle-rule energy of one sampled run.

        This is what a naive logging script computes: sum of samples
        times the logging interval.  The HCLWattsUp layer refines this
        with baseline subtraction; tests verify the estimate converges
        to :meth:`PowerTrace.true_energy_j` for long traces.
        """
        samples = self.sample_run(trace)
        return sum(s.power_w for s in samples) * self.sample_interval_s
