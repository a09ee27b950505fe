"""Fig. 1: dynamic energy vs. work for the 2D-FFT application.

The paper (reporting [12]) sweeps N from 125 to 44000 on the Haswell
CPU, the K40c and the P100 and finds that "for all three processors,
the dynamic energy is a complex non-linear function of work performed,
and therefore strong EP does not hold for them."

This experiment reproduces the sweep on the simulated platforms and
applies the formal strong-EP check to each series.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.analysis.ep_analysis import StrongEPStudy, strong_ep_study
from repro.analysis.report import format_pct, format_series, format_table
from repro.apps.fft2d import FFT2DApp

__all__ = ["Fig1Result", "default_sizes", "run"]


def default_sizes() -> list[int]:
    """The N sweep: the paper's range 125..44000, mixed radix profiles.

    Includes powers of two, smooth composites, and sizes with large
    prime factors so the radix structure of real FFT libraries shows.
    """
    sizes = [
        125, 256, 384, 500, 512, 729, 1000, 1024, 1536, 2000, 2048,
        3000, 3072, 4096, 5000, 6144, 8192, 10000, 11000, 12288,
        13122, 16384, 17000, 20000, 22000, 24576, 27000, 32768,
        35000, 39366, 40960, 44000,
    ]
    # A few awkward sizes with large prime factors (FFT worst cases).
    sizes += [1021, 2039, 4093, 8191, 16381, 21001]
    return sorted(set(sizes))


class Fig1Result(NamedTuple):
    """Per-device (W, E_d) series plus strong-EP verdicts."""

    studies: tuple[StrongEPStudy, ...]

    def render(self) -> str:
        parts = []
        rows = []
        for s in self.studies:
            rows.append(
                (
                    s.device,
                    "violated" if not s.result.holds else "holds",
                    format_pct(s.result.max_relative_deviation),
                    f"{s.result.r_squared:.4f}",
                )
            )
        parts.append(
            format_table(
                ["device", "strong EP", "max rel. deviation", "R² (E=cW)"], rows
            )
        )
        for s in self.studies:
            parts.append("")
            parts.append(
                format_series(
                    f"fig1 {s.device}: E_d (J) vs W", s.work, s.energy_j
                )
            )
        return "\n".join(parts)


def run(sizes: list[int] | None = None) -> Fig1Result:
    """Regenerate Fig. 1 on the simulated platforms."""
    app = FFT2DApp()
    if sizes is None:
        sizes = default_sizes()
    studies = []
    for device in app.devices():
        results = app.sweep(device, sizes)
        studies.append(
            strong_ep_study(
                device,
                [r.work for r in results],
                [r.dynamic_energy_j for r in results],
            )
        )
    return Fig1Result(studies=tuple(studies))
