"""Fig. 4: dynamic power and performance vs. average CPU utilization.

The paper sweeps configurations (partitioning type, number of thread
groups, threads per group) of the MKL and OpenBLAS DGEMM applications
at N = 17408 on the dual-socket Haswell and shows:

* performance is linear in average CPU utilization until a ~700 GFLOPs
  plateau ("the flattening ... is due to the memory activity of the
  threads hitting the peak memory bandwidth of the system" — in our
  calibration the compute roofline, which lands at the same plateau);
* dynamic power is *nonfunctional* in average utilization: "points
  with about 50% utilization have different dynamic powers and
  performances" — abnormal relative to the linear or concave trend
  lines of the prior literature.

The experiment quantifies both: the linear-fit quality of the
performance ramp, the plateau level, and the worst same-utilization
power gap (the nonfunctionality witness).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.analysis.report import format_table
from repro.apps.dgemm_cpu import DGEMMCPUApp
from repro.machines.specs import HASWELL
from repro.simcpu.processor import CPURunResult

__all__ = ["Fig4Result", "LibrarySeries", "run", "nonfunctionality_witnesses"]

#: The paper's workload for this figure.
N_PAPER = 17408

#: A witness pair's utilizations lie within this many percentage
#: points of each other, and its powers at least this many watts apart.
UTILIZATION_WINDOW = 1.5
MIN_POWER_GAP_W = 10.0


def nonfunctionality_witnesses(
    results: list[CPURunResult],
    *,
    utilization_window: float = UTILIZATION_WINDOW,
    min_power_gap_w: float = MIN_POWER_GAP_W,
) -> list[tuple[CPURunResult, CPURunResult]]:
    """Config pairs with near-equal average utilization and far-apart power.

    Each returned pair is a counterexample to any functional
    power-vs-utilization model — the paper's points on lines C and D.
    """
    results = list(results)
    pairs = _witness_pairs(
        [r.avg_utilization for r in results],
        [r.power.dynamic_w for r in results],
        utilization_window,
        min_power_gap_w,
    )
    return [(results[i], results[j]) for i, j in pairs]


def _witness_pairs(
    util: list[float],
    power: list[float],
    utilization_window: float,
    min_power_gap_w: float,
) -> list[tuple[int, int]]:
    """:func:`nonfunctionality_witnesses` over each result's utilization
    and power, read once: index pairs ``(i, j)``, ``i`` before ``j`` in
    the stable order of ascending utilization."""
    order = sorted(range(len(util)), key=util.__getitem__)
    util = [util[i] for i in order]
    power = [power[i] for i in order]
    pairs = []
    count = len(order)
    for a, (util_a, power_a) in enumerate(zip(util, power)):
        for b in range(a + 1, count):
            if util[b] - util_a > utilization_window:
                break
            if abs(power_a - power[b]) >= min_power_gap_w:
                pairs.append((order[a], order[b]))
    return pairs


class LibrarySeries(NamedTuple):
    """One library's Fig. 4 panel data."""

    library: str
    utilization_pct: tuple[float, ...]
    power_w: tuple[float, ...]
    gflops: tuple[float, ...]
    plateau_gflops: float
    ramp_r_squared: float
    n_witness_pairs: int
    max_power_gap_w: float
    #: Binned multi-valuedness ratio (power vs utilization); > 3 means
    #: the within-bin power spread exceeds 3x the measurement noise.
    nonfunctionality_ratio: float


class Fig4Result(NamedTuple):
    n: int
    series: tuple[LibrarySeries, ...]

    def render(self) -> str:
        rows = [
            (
                s.library,
                f"{s.plateau_gflops:.0f}",
                f"{s.ramp_r_squared:.4f}",
                str(s.n_witness_pairs),
                f"{s.max_power_gap_w:.1f}",
                f"{s.nonfunctionality_ratio:.1f}x",
            )
            for s in self.series
        ]
        return format_table(
            [
                "library",
                "plateau GFLOPs (paper ~700)",
                "ramp linearity R²",
                "same-util power-gap pairs",
                "max power gap (W)",
                "nonfunctionality (noise x)",
            ],
            rows,
        )


def _ramp_r_squared(util: np.ndarray, gflops: np.ndarray) -> float:
    """R² of a through-origin linear fit over the pre-plateau ramp."""
    mask = util <= 50.0
    if mask.sum() < 3:
        raise ValueError("too few ramp points")
    u, g = util[mask], gflops[mask]
    c = float(np.dot(u, g) / np.dot(u, u))
    resid = g - c * u
    ss_tot = float(np.sum((g - g.mean()) ** 2))
    return 1.0 - float(np.sum(resid**2)) / ss_tot if ss_tot > 0 else 1.0


def run(n: int = N_PAPER) -> Fig4Result:
    """Regenerate the Fig. 4 analysis for both libraries."""
    app = DGEMMCPUApp(HASWELL)
    series = []
    for lib in ("mkl", "openblas"):
        results = app.sweep(n, lib)
        util_pct = [r.avg_utilization for r in results]
        power_w = [r.power.dynamic_w for r in results]
        witnesses = _witness_pairs(
            util_pct, power_w, UTILIZATION_WINDOW, MIN_POWER_GAP_W
        )
        max_gap = max(
            (abs(power_w[i] - power_w[j]) for i, j in witnesses),
            default=0.0,
        )
        util = np.array(util_pct)
        power = np.array(power_w)
        gflops = np.array([r.gflops for r in results])
        from repro.analysis.nonfunctionality import nonfunctionality_test

        verdict = nonfunctionality_test(util, power)
        series.append(
            LibrarySeries(
                library=lib,
                utilization_pct=tuple(util.tolist()),
                power_w=tuple(power.tolist()),
                gflops=tuple(gflops.tolist()),
                plateau_gflops=float(gflops.max()),
                ramp_r_squared=_ramp_r_squared(util, gflops),
                n_witness_pairs=len(witnesses),
                max_power_gap_w=float(max_gap),
                nonfunctionality_ratio=verdict.ratio,
            )
        )
    return Fig4Result(n=n, series=tuple(series))
