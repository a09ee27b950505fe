"""Fig. 2: P100 EP plots for the matmul application at N = 18432.

The paper's four panels: (a) the full (time, dynamic energy) cloud
over all (BS, G, R) configurations; (b) the BS ∈ [1, 20] region where
"dynamic energy increases monotonically with the execution time" (so
optimizing for performance optimizes for energy); (c) the BS ∈ [21, 32]
nonproportionality region; (d) its global Pareto front.  Quantified
claims: a 2.5% performance degradation gives 12.5% dynamic energy
savings; restricting to BS ≤ 30 gives 24% savings at 8% degradation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.ep_analysis import materialize
from repro.analysis.report import format_pct, format_table
from repro.apps.matmul_gpu import MatmulGPUApp
from repro.core.pareto import ParetoPoint, front_indices
from repro.core.tradeoff import TradeoffEntry, max_energy_saving
from repro.machines import P100

if TYPE_CHECKING:  # pragma: no cover
    from repro.sweep.planner import EvalPlanner

__all__ = ["Fig2Result", "run", "requests", "monotone_fraction"]

#: The paper's workload for this figure.
N_PAPER = 18432


def requests(n: int = N_PAPER):
    """The sweep requests this experiment will make (planner protocol)."""
    from repro.sweep.plan import SweepRequest

    return (SweepRequest(device=P100, n=n),)


def monotone_fraction(points: list[ParetoPoint]) -> float:
    """Fraction of time-ordered successive pairs with non-decreasing energy.

    1.0 means energy is perfectly monotone in time over the region —
    the paper's description of the BS ∈ [1, 20] region.  Successive-
    pair monotonicity is strict; :func:`rank_correlation` is the
    robust version used for the verdict.
    """
    if len(points) < 2:
        raise ValueError("need at least 2 points")
    return _monotone_fraction_cols(
        np.array([p.time_s for p in points]),
        np.array([p.energy_j for p in points]),
    )


def _monotone_fraction_cols(times: np.ndarray, energies: np.ndarray) -> float:
    """Column-native :func:`monotone_fraction` (same stable time order)."""
    order = np.argsort(times, kind="stable")
    diffs = np.diff(energies[order])
    return float(np.mean(diffs >= -1e-9))


def rank_correlation(points: list[ParetoPoint]) -> float:
    """Spearman rank correlation between time and energy over a region.

    Near 1.0 means optimizing for performance optimizes for dynamic
    energy throughout the region (the paper's reading of the BS ≤ 20
    panel).
    """
    if len(points) < 3:
        raise ValueError("need at least 3 points")
    return _rank_correlation_cols(
        np.array([p.time_s for p in points]),
        np.array([p.energy_j for p in points]),
    )


def _average_ranks(x: np.ndarray) -> np.ndarray:
    """1-based ranks of ``x``; tied values share the mean of their ranks."""
    order = np.argsort(x, kind="stable")
    xs = x[order]
    run_start = np.empty(len(xs), dtype=bool)
    run_start[0] = True
    np.not_equal(xs[1:], xs[:-1], out=run_start[1:])
    starts = np.flatnonzero(run_start)
    ends = np.append(starts[1:], len(xs))
    ranks = np.empty(len(xs))
    ranks[order] = np.repeat(0.5 * (starts + ends + 1), ends - starts)
    return ranks


def _rank_correlation_cols(times: np.ndarray, energies: np.ndarray) -> float:
    """Column-native :func:`rank_correlation`.

    Spearman's rho: the Pearson correlation of average ranks.  The
    ranks are stacked as columns, as ``scipy.stats.spearmanr`` stacks
    them, so both sum in the same order.  NaN when either column holds
    a NaN or is constant.
    """
    if np.isnan(times).any() or np.isnan(energies).any():
        return float("nan")
    ranks = np.column_stack((_average_ranks(times), _average_ranks(energies)))
    with np.errstate(invalid="ignore"):
        return float(np.corrcoef(ranks, rowvar=False)[1, 0])


@dataclass(frozen=True)
class Fig2Result:
    """The four panels' data plus the quantified trade-off claims.

    Panel mapping: ``table`` holds the top-left cloud (columnar); the
    BS ≤ 20 diagnostics describe the top-right monotone region; the
    *global* Pareto front (bottom-right panel — the paper computes it
    over the whole sweep and observes its points fall in the
    nonproportionality region) carries the quantified 12.5%-at-2.5%
    claim; the BS ≤ 30 restriction carries the 24%-at-8% claim.
    """

    n: int
    #: The full sweep as a POINT_DTYPE structured array.  Excluded from
    #: equality (ndarray __eq__ is elementwise); the scalar fields and
    #: fronts derived from it are what comparisons check.
    table: np.ndarray = field(compare=False, repr=False)
    low_bs_monotone_fraction: float
    low_bs_rank_correlation: float
    global_front: tuple[ParetoPoint, ...]
    global_headline: TradeoffEntry
    bs30_front: tuple[ParetoPoint, ...]
    bs30_headline: TradeoffEntry

    def all_points(self) -> tuple[ParetoPoint, ...]:
        """The full cloud as ParetoPoints (reporting boundary only)."""
        return materialize(self.table, range(len(self.table)))

    def render(self) -> str:
        rows = [
            ("configurations evaluated", str(len(self.table))),
            (
                "BS 1-20 region: energy monotone in time",
                format_pct(self.low_bs_monotone_fraction) + " of steps",
            ),
            (
                "BS 1-20 region: time-energy rank correlation",
                f"{self.low_bs_rank_correlation:.3f}",
            ),
            ("global front size (paper: 2)", str(len(self.global_front))),
            (
                "max saving (paper: 12.5% @ 2.5%)",
                f"{format_pct(self.global_headline.energy_saving)} @ "
                f"{format_pct(self.global_headline.perf_degradation)}",
            ),
            ("BS <= 30 front size", str(len(self.bs30_front))),
            (
                "BS <= 30 max saving (paper: 24% @ 8%)",
                f"{format_pct(self.bs30_headline.energy_saving)} @ "
                f"{format_pct(self.bs30_headline.perf_degradation)}",
            ),
        ]
        front_rows = [
            (
                str(p.config),
                f"{p.time_s:.2f}",
                f"{p.energy_j:.0f}",
            )
            for p in self.global_front
        ]
        return (
            format_table(["quantity", "value"], rows)
            + "\n\nGlobal Pareto front:\n"
            + format_table(["config", "time (s)", "energy (J)"], front_rows)
        )


def run(
    n: int = N_PAPER, *, engine: "EvalPlanner | None" = None
) -> Fig2Result:
    """Regenerate the Fig. 2 analysis (optionally through a planner)."""
    from repro import obs

    with obs.span("experiment.fig2", n=n):
        app = MatmulGPUApp(P100)
        table = app.sweep_table(n, engine=engine)
        times, energies = table["time_s"], table["energy_j"]

        low = np.flatnonzero(table["bs"] <= 20)
        bs30 = np.flatnonzero(table["bs"] <= 30)
        if not low.size or not bs30.size:
            raise RuntimeError("sweep did not populate the Fig. 2 regions")

        # The max-saving entry of a point set equals that of its front
        # (tradeoff_table reduces to the front internally), so only the
        # front rows are ever materialized as ParetoPoints.
        global_front = materialize(table, front_indices(times, energies))
        bs30_front = materialize(
            table, bs30[front_indices(times[bs30], energies[bs30])]
        )
        return Fig2Result(
            n=n,
            table=table,
            low_bs_monotone_fraction=_monotone_fraction_cols(
                times[low], energies[low]
            ),
            low_bs_rank_correlation=_rank_correlation_cols(
                times[low], energies[low]
            ),
            global_front=global_front,
            global_headline=max_energy_saving(list(global_front)),
            bs30_front=bs30_front,
            bs30_headline=max_energy_saving(list(bs30_front)),
        )
