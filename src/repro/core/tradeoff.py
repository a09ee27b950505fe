"""Energy-saving vs. performance-degradation trade-off analysis.

The paper's headline results are phrased as pairs "(maximum dynamic
energy saving, tolerated performance degradation)" measured from the
performance-optimal solution: e.g. "(18%, 7%) for the K40c and
(50%, 11%) for the P100".  This module computes those quantities from a
Pareto front:

* :func:`tradeoff_table` — for every front point, energy saving and
  performance degradation relative to the performance-optimal point;
* :func:`max_energy_saving` — the paper's headline pair;
* :func:`saving_at_degradation` — the best energy saving achievable
  within a degradation budget.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

from repro.core.pareto import ParetoPoint, pareto_front

__all__ = [
    "TradeoffEntry",
    "tradeoff_table",
    "max_energy_saving",
    "saving_at_degradation",
]


class TradeoffEntry(NamedTuple):
    """One Pareto-front point expressed as a trade-off vs. the time-optimum.

    Attributes
    ----------
    point:
        The underlying front point.
    energy_saving:
        Fractional dynamic-energy saving relative to the
        performance-optimal point: ``1 - E/E_perf_opt``.  Positive for
        every non-degenerate front point other than the time-optimum.
    perf_degradation:
        Fractional execution-time increase relative to the
        performance-optimal point: ``t/t_perf_opt - 1``.
    """

    point: ParetoPoint
    energy_saving: float
    perf_degradation: float


def tradeoff_table(points: Sequence[ParetoPoint]) -> list[TradeoffEntry]:
    """Express a set of points as trade-offs against the time-optimum.

    ``points`` may be a full configuration sweep or an already-extracted
    front; the front is (re)computed internally.  The first entry is
    always the performance-optimal point itself with ``(0, 0)``
    saving/degradation.  Entries are ordered by increasing degradation.
    """
    front = pareto_front(points)
    if not front:
        return []
    ref = front[0]  # fastest point (front is sorted by time)
    if ref.time_s <= 0 or ref.energy_j <= 0:
        raise ValueError("reference point must have positive objectives")
    return [
        TradeoffEntry(
            point=p,
            energy_saving=1.0 - p.energy_j / ref.energy_j,
            perf_degradation=p.time_s / ref.time_s - 1.0,
        )
        for p in front
    ]


def max_energy_saving(points: Sequence[ParetoPoint]) -> TradeoffEntry:
    """The paper's headline pair: maximum saving and its degradation cost.

    Returns the trade-off entry with the largest energy saving; because
    the front is energy-monotone this is always the slowest front point.
    For single-point fronts (K40c global front) the result is the
    degenerate ``(0, 0)`` entry, signifying that the performance-optimal
    solution is also energy-optimal.
    """
    table = tradeoff_table(points)
    if not table:
        raise ValueError("cannot analyze an empty point set")
    return max(table, key=lambda e: e.energy_saving)


def saving_at_degradation(
    points: Sequence[ParetoPoint], max_degradation: float
) -> TradeoffEntry:
    """Best energy saving within a performance-degradation budget.

    ``max_degradation`` is fractional (0.05 = tolerate 5% slowdown).
    Returns the front entry with the largest saving among those whose
    degradation does not exceed the budget; the time-optimal entry
    (zero saving) is always admissible, so the result is well defined
    for any non-empty point set.
    """
    if max_degradation < 0:
        raise ValueError("max_degradation must be non-negative")
    table = tradeoff_table(points)
    if not table:
        raise ValueError("cannot analyze an empty point set")
    admissible = [e for e in table if e.perf_degradation <= max_degradation]
    return max(admissible, key=lambda e: e.energy_saving)
