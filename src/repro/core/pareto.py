"""Pareto-front machinery for bi-objective (time, energy) optimization.

The paper analyzes the trade-off between *execution time* and *dynamic
energy* over the discrete set of application configurations solving the
same workload.  Both objectives are minimized.  This module provides:

* the dominance relation (:func:`dominates`), the reference the front
  kernels are tested against,
* global Pareto-front extraction (:func:`pareto_front`) and its
  array-native kernel over two objective columns
  (:func:`front_indices`), and
* *local* Pareto fronts over configuration sub-regions
  (:func:`local_pareto_front`), used for the K40c whose global front
  degenerates to one point (paper Section V.B).

All point functions operate on :class:`ParetoPoint` records so callers
can carry an arbitrary configuration payload through the analysis.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any

import numpy as np

__all__ = [
    "ParetoPoint",
    "check_objectives",
    "dominates",
    "pareto_front",
    "local_pareto_front",
    "front_indices",
]


@dataclass(frozen=True)
class ParetoPoint:
    """One candidate solution in (time, energy) objective space.

    Attributes
    ----------
    time_s:
        Execution time objective (seconds, minimized).
    energy_j:
        Dynamic energy objective (joules, minimized).
    config:
        Opaque payload identifying the application configuration that
        produced this point (e.g. a ``(BS, G, R)`` tuple).  Not used in
        dominance comparisons.
    """

    time_s: float
    energy_j: float
    config: Any = None

    def __post_init__(self) -> None:
        check_objectives(self.time_s, self.energy_j)

    def objectives(self) -> tuple[float, float]:
        """Return the ``(time, energy)`` objective tuple."""
        return (self.time_s, self.energy_j)


def check_objectives(time_s: float, energy_j: float) -> None:
    """Raise ValueError unless both objectives are finite and
    non-negative: the check every :class:`ParetoPoint` makes."""
    if not math.isfinite(time_s) or not math.isfinite(energy_j):
        raise ValueError(
            f"objectives must be finite, got time={time_s} "
            f"energy={energy_j}"
        )
    if time_s < 0 or energy_j < 0:
        raise ValueError(
            f"objectives must be non-negative, got time={time_s} "
            f"energy={energy_j}"
        )


def dominates(a: ParetoPoint, b: ParetoPoint, *, tol: float = 0.0) -> bool:
    """Return True if ``a`` Pareto-dominates ``b`` (both minimized).

    ``a`` dominates ``b`` when it is no worse in both objectives and
    strictly better in at least one.  ``tol`` is an absolute slack: a
    difference smaller than ``tol`` counts as "no worse" but not as
    "strictly better", which makes the relation robust to measurement
    noise at the cost of no longer being a strict partial order for
    ``tol > 0``.
    """
    if tol < 0:
        raise ValueError("tol must be non-negative")
    no_worse = a.time_s <= b.time_s + tol and a.energy_j <= b.energy_j + tol
    strictly_better = a.time_s < b.time_s - tol or a.energy_j < b.energy_j - tol
    return no_worse and strictly_better


def _as_points(points: Iterable[ParetoPoint | tuple]) -> list[ParetoPoint]:
    """Coerce raw ``(time, energy[, config])`` tuples to ParetoPoints."""
    out: list[ParetoPoint] = []
    for p in points:
        if isinstance(p, ParetoPoint):
            out.append(p)
        else:
            t, e, *rest = p
            out.append(ParetoPoint(float(t), float(e), rest[0] if rest else None))
    return out


def pareto_front(points: Iterable[ParetoPoint | tuple]) -> list[ParetoPoint]:
    """Extract the global Pareto front, sorted by increasing time.

    Uses the classic sweep: sort by (time, energy) and keep points whose
    energy strictly improves on the best seen so far.  Duplicate
    objective vectors are collapsed to a single representative (the
    first in sorted order), matching the paper's treatment of fronts as
    sets of objective points.  Complexity O(n log n).
    """
    pts = _as_points(points)
    if not pts:
        return []
    pts.sort(key=lambda p: (p.time_s, p.energy_j))
    front: list[ParetoPoint] = []
    best_energy = math.inf
    for p in pts:
        if p.energy_j < best_energy:
            front.append(p)
            best_energy = p.energy_j
    return front


def front_indices(times, energies) -> np.ndarray:
    """Indices of the Pareto front of two objective columns, front order.

    The array-native kernel behind :func:`pareto_front`: given
    index-aligned ``time_s`` / ``energy_j`` columns (any array-likes),
    returns the indices of the front members ordered by increasing
    time.  Exactly equivalent to ``pareto_front`` on the same data —
    ``np.lexsort`` is stable like ``list.sort``, so tie-breaking and
    the duplicate-collapse (first representative in sorted order) are
    identical — but never materializes a :class:`ParetoPoint`; callers
    on the columnar fast path keep everything in NumPy and adapt to
    points only at the reporting boundary.
    """
    times = np.asarray(times, dtype=np.float64)
    energies = np.asarray(energies, dtype=np.float64)
    if times.size == 0:
        return np.empty(0, dtype=np.intp)
    order = np.lexsort((energies, times))  # stable sort by (time, energy)
    e_sorted = energies[order]
    keep = np.empty(order.size, dtype=bool)
    keep[0] = True
    # Strict improvement over the running minimum — the same "energy
    # strictly improves on the best seen so far" rule as pareto_front.
    keep[1:] = e_sorted[1:] < np.minimum.accumulate(e_sorted)[:-1]
    return order[keep]


def local_pareto_front(
    points: Iterable[ParetoPoint | tuple],
    region: Callable[[ParetoPoint], bool],
) -> list[ParetoPoint]:
    """Pareto front restricted to the configurations in ``region``.

    The paper reports *local* Pareto fronts for the K40c: the global
    front degenerates to a single point (BS=32), but sub-regions of the
    configuration space — e.g. configurations with BS ≤ 31 — contain
    "regions of high energy nonproportionality that provide many
    diverse trade-off solutions" (Section V.B).  ``region`` is a
    predicate over points (typically inspecting ``point.config``).
    """
    return pareto_front(p for p in _as_points(points) if region(p))
