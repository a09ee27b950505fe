"""Budgeted front search vs. exhaustive evaluation.

The paper motivates local fronts partly by cost: "determining a global
Pareto front by exhaustively obtaining the data points for all the
application configurations can be expensive and may not be feasible in
dynamic environments with time constraints" (Section V.B).  This study
quantifies the alternative: how much of the exhaustive front's quality
does the budgeted greedy search (:func:`repro.core.biobjective.
greedy_front_search`) recover at a fraction of the evaluations?

Quality is scored with the standard indicators (IGD and the additive
ε-indicator) against the exhaustive front, per evaluation budget.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.analysis.front_quality import (
    normalized_additive_epsilon,
    normalized_igd,
    objective_array,
    reference_scale,
)
from repro.analysis.report import format_table
from repro.apps.matmul_gpu import MatmulGPUApp
from repro.core.biobjective import greedy_front_search
from repro.core.pareto import check_objectives, front_indices
from repro.machines import P100
from repro.machines.specs import GPUSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.sweep.planner import EvalPlanner

__all__ = ["BudgetRow", "BudgetedSearchResult", "run", "requests"]


def requests(spec: GPUSpec = P100, n: int = 10240):
    """The sweep requests this experiment will make (planner protocol).

    The greedy search probes configurations from the *full* space
    (``min_bs=1``, not the sweep default BS ≥ 4), so the request covers
    every point the exhaustive pass or any probe can touch.
    """
    from repro.sweep.plan import SweepRequest

    return (SweepRequest(device=spec, n=n, min_bs=1),)


class BudgetRow(NamedTuple):
    budget: int
    budget_fraction: float
    front_size: int
    igd: float
    epsilon: float


class BudgetedSearchResult(NamedTuple):
    device: str
    n: int
    space_size: int
    exhaustive_front_size: int
    rows: tuple[BudgetRow, ...]

    def render(self) -> str:
        header = (
            f"{self.device}, N={self.n}: exhaustive sweep = "
            f"{self.space_size} evaluations, front = "
            f"{self.exhaustive_front_size} points\n"
        )
        return header + format_table(
            ["budget", "of sweep", "front pts", "IGD", "eps-indicator"],
            [
                (
                    r.budget,
                    f"{r.budget_fraction:.0%}",
                    r.front_size,
                    f"{r.igd:.4f}",
                    f"{r.epsilon:.4f}",
                )
                for r in self.rows
            ],
        )


def run(
    spec: GPUSpec = P100,
    n: int = 10240,
    budget_fractions: tuple[float, ...] = (0.1, 0.2, 0.35, 0.5, 1.0),
    seed: int = 0,
    *,
    engine: "EvalPlanner | None" = None,
) -> BudgetedSearchResult:
    """Score the greedy search at several evaluation budgets.

    The exhaustive pass evaluates every configuration once, through one
    planner table over the whole configuration space when ``engine`` is
    given and through the scalar model of record otherwise; every
    greedy probe is then served from those objectives.
    """
    from repro import obs

    with obs.span("experiment.budgeted-search", device=spec.name, n=n):
        return _run_scored(spec, n, budget_fractions, seed, engine)


def _run_scored(
    spec: GPUSpec,
    n: int,
    budget_fractions: tuple[float, ...],
    seed: int,
    engine: "EvalPlanner | None",
) -> BudgetedSearchResult:
    app = MatmulGPUApp(spec)
    space = app.config_space()
    size = space.size()
    # The space's own configurations, in its enumeration order.
    configs = app.sweep_enumeration(min_bs=1)

    if engine is not None:
        from repro.sweep.plan import SweepRequest

        request = SweepRequest(
            device=spec, n=n, min_bs=1, cal=app.device.cal
        )
        rows = engine.table(request, configs)
        times, energies = rows["time_s"], rows["energy_j"]
    else:
        runs = [app.device.run_matmul(n, c.bs, c.g, c.r) for c in configs]
        times = np.array([r.time_s for r in runs])
        energies = np.array([r.dynamic_energy_j for r in runs])
    # Every objective finite and non-negative: the check a ParetoPoint makes.
    valid = (0 <= times) & (times < np.inf)
    valid &= (0 <= energies) & (energies < np.inf)
    if not valid.all():
        bad = int(np.argmin(valid))
        check_objectives(float(times[bad]), float(energies[bad]))
    objectives = dict(
        zip(
            [(c.bs, c.g, c.r) for c in configs],
            zip(times.tolist(), energies.tolist()),
        )
    )

    def evaluate(cfg) -> tuple[float, float]:
        return objectives[cfg["bs"], cfg["g"], cfg["r"]]

    front = front_indices(times, energies)
    reference = np.column_stack((times[front], energies[front]))
    scale = reference_scale(reference)
    normalized_reference = reference / scale

    scored = []
    for frac in budget_fractions:
        budget = max(2, int(round(frac * size)))
        approx, _ = greedy_front_search(
            space, evaluate, budget=budget, seed=seed
        )
        normalized_approx = objective_array(approx) / scale
        scored.append(
            BudgetRow(
                budget=budget,
                budget_fraction=budget / size,
                front_size=len(approx),
                igd=normalized_igd(normalized_reference, normalized_approx),
                epsilon=normalized_additive_epsilon(
                    normalized_reference, normalized_approx
                ),
            )
        )
    return BudgetedSearchResult(
        device=spec.name,
        n=n,
        space_size=size,
        exhaustive_front_size=len(front),
        rows=tuple(scored),
    )
