"""Section III: energy nonproportionality from core imbalance.

The paper's theory considers two homogeneous cores that each obey the
simple EP model and shows that any utilization imbalance strictly
raises the dynamic energy of a fixed workload: ``E3 > E2 > E1 = 2ab``
(equations (1)-(3)).  This experiment evaluates that chain over a
utilization grid, and checks the n-core generalization the paper
defers to future work — the balanced utilization vector minimizes
dynamic energy — over random utilization vectors.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.analysis.report import format_table, paper_vs_measured
from repro.core.theory import NCoreModel, TwoCoreModel

__all__ = ["TheoryResult", "run"]

#: Base utilizations ``U`` and imbalances ``ΔU`` of the two-core grid;
#: a pair enters the grid when ``U + ΔU <= 1`` and ``ΔU < U``.
GRID_U: tuple[float, ...] = (0.3, 0.5, 0.7)
GRID_DELTA: tuple[float, ...] = (0.05, 0.1, 0.2)

#: Random utilization vectors of the n-core check.
N_CORE_VECTORS = 200


class ChainRow(NamedTuple):
    """Equations (1)-(3) at one grid point."""

    u: float
    delta: float
    e1: float
    e2: float
    e3: float


class TheoryResult(NamedTuple):
    rows: tuple[ChainRow, ...]
    #: Random vectors whose energy is at least the balanced energy.
    n_core_ok: int

    @property
    def chain_ok(self) -> int:
        """Grid points where ``E3 > E2 > E1`` holds."""
        return sum(r.e3 > r.e2 > r.e1 for r in self.rows)

    def render(self) -> str:
        comparison = paper_vs_measured(
            [
                ("two-core chain E3 > E2 > E1", "holds (eqs 1-3)",
                 f"{self.chain_ok}/{len(self.rows)} grid points"),
                ("n-core balanced minimum", "future work (Section III)",
                 f"{self.n_core_ok}/{N_CORE_VECTORS} random vectors"),
            ]
        )
        table = format_table(
            ["config", "E1", "E2", "E3"],
            [
                (f"U={r.u}, dU={r.delta}",
                 f"{r.e1:.3f}", f"{r.e2:.3f}", f"{r.e3:.3f}")
                for r in self.rows
            ],
        )
        return comparison + "\n\n" + table


def run() -> TheoryResult:
    """Evaluate the two-core chain on the grid (``a = b = 1``) and the
    n-core balanced minimum on seeded random vectors of 2 to 15 cores."""
    model = TwoCoreModel(a=1.0, b=1.0)
    rows = tuple(
        ChainRow(u, delta, *model.inequality_chain(u, delta))
        for u in GRID_U
        for delta in GRID_DELTA
        if u + delta <= 1.0 and delta < u
    )
    rng = np.random.default_rng(0)
    n_core_ok = 0
    for _ in range(N_CORE_VECTORS):
        n = int(rng.integers(2, 16))
        n_core = NCoreModel(a=1.0, b=1.0, n=n)
        u = rng.uniform(0.05, 1.0, n)
        balanced = n_core.balanced_energy()
        n_core_ok += n_core.dynamic_energy(u) >= balanced - 1e-9
    return TheoryResult(rows, n_core_ok)
