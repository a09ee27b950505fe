"""Pareto-front machinery for bi-objective (time, energy) optimization.

The paper analyzes the trade-off between *execution time* and *dynamic
energy* over the discrete set of application configurations solving the
same workload.  Both objectives are minimized.  This module provides:

* dominance tests and global Pareto-front extraction
  (:func:`pareto_front`),
* *local* Pareto fronts over configuration sub-regions
  (:func:`local_pareto_front`), used for the K40c whose global front
  degenerates to one point (paper Section V.B),
* ε-approximate fronts (:func:`epsilon_pareto_front`),
* the bi-objective hypervolume indicator (:func:`hypervolume_2d`) as a
  front-quality measure beyond the paper's point counts, and
* non-dominated sorting (:func:`nondominated_sort`) which ranks every
  configuration by Pareto layer.

All functions operate on :class:`ParetoPoint` records so callers can
carry an arbitrary configuration payload through the analysis.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = [
    "ParetoPoint",
    "check_objectives",
    "dominates",
    "pareto_front",
    "local_pareto_front",
    "epsilon_pareto_front",
    "nondominated_sort",
    "hypervolume_2d",
    "front_spread",
    "front_indices",
    "front_mask",
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


def front_mask(times, energies) -> np.ndarray:
    """Boolean front membership over the *input* order.

    ``front_mask(t, e)`` marks exactly the rows ``front_indices``
    selects; useful when the caller wants to subset other columns of a
    structured array without reordering.
    """
    times = np.asarray(times, dtype=np.float64)
    mask = np.zeros(times.shape, dtype=bool)
    mask[front_indices(times, energies)] = True
    return mask


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


def epsilon_pareto_front(
    points: Iterable[ParetoPoint | tuple], epsilon: float
) -> list[ParetoPoint]:
    """Multiplicative ε-approximate Pareto front.

    Returns a subset ``S`` of the exact front such that every exact
    front point is (1+ε)-dominated by some member of ``S``: for each
    front point ``p`` there is ``s ∈ S`` with ``s.time ≤ (1+ε)·p.time``
    and ``s.energy ≤ (1+ε)·p.energy``.  Useful for thinning dense
    fronts before presenting trade-offs to a user.
    """
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    front = pareto_front(points)
    kept: list[ParetoPoint] = []
    scale = 1.0 + epsilon
    # The front is sorted by increasing time with strictly decreasing
    # energy, so every kept point already satisfies the time condition
    # (s.time ≤ p.time ≤ scale·p.time) and the energy condition is
    # tightest for the *last* kept point — one O(1) test per point
    # instead of a scan over ``kept``.
    for p in front:
        if kept and kept[-1].energy_j <= scale * p.energy_j:
            continue
        kept.append(p)
    return kept


def nondominated_sort(
    points: Iterable[ParetoPoint | tuple],
) -> list[list[ParetoPoint]]:
    """Partition points into Pareto layers (fronts of rank 0, 1, ...).

    Rank 0 is the global Pareto front; rank ``k`` is the front of the
    remaining points once ranks ``< k`` are removed.  Duplicate
    objective vectors beyond the first representative are assigned to
    the next layer (they are mutually non-dominating but add no new
    trade-off).

    Single-sort staircase algorithm, O(n log n) total: process points
    in (time, energy) order and assign each to the first layer whose
    current minimum energy still exceeds the point's energy — exactly
    the layer the repeated-:func:`pareto_front`-peeling formulation
    would give it, because a sorted-order point is excluded from a
    layer iff an earlier point kept in that layer has energy ≤ its own.
    The per-layer minimum energies form a non-decreasing array (a point
    lands in layer k+1 only when its energy is at least layer k's
    minimum), so the first admissible layer is a binary search.
    """
    pts = _as_points(points)
    order = sorted(range(len(pts)), key=lambda i: (pts[i].time_s, pts[i].energy_j))
    layers: list[list[ParetoPoint]] = []
    min_energy: list[float] = []  # per-layer minimum energy, non-decreasing
    for i in order:
        p = pts[i]
        layer = bisect_right(min_energy, p.energy_j)
        if layer == len(layers):
            layers.append([])
            min_energy.append(p.energy_j)
        else:
            min_energy[layer] = p.energy_j
        layers[layer].append(p)
    return layers


def hypervolume_2d(
    front: Sequence[ParetoPoint],
    reference: tuple[float, float],
) -> float:
    """Hypervolume (area) dominated by ``front`` w.r.t. ``reference``.

    ``reference`` is a (time, energy) point that must be weakly
    dominated by every front member; points at or beyond the reference
    contribute zero area.  For a 2-D minimization front the hypervolume
    is the union of axis-aligned rectangles between each front point
    and the reference, computed by a left-to-right sweep.
    """
    ref_t, ref_e = reference
    pts = sorted(
        (p for p in front if p.time_s < ref_t and p.energy_j < ref_e),
        key=lambda p: p.time_s,
    )
    # Keep only the non-dominated prefix in sweep order.
    area = 0.0
    prev_energy = ref_e
    for p in pts:
        if p.energy_j >= prev_energy:
            continue  # dominated in this sweep; contributes nothing new
        area += (ref_t - p.time_s) * (prev_energy - p.energy_j)
        prev_energy = p.energy_j
    return area


def front_spread(front: Sequence[ParetoPoint]) -> tuple[float, float]:
    """Relative extent of a front in each objective.

    Returns ``(time_spread, energy_spread)`` where each spread is
    ``(max - min) / min`` over the front, or ``(0, 0)`` for fronts with
    fewer than two points.  The paper's headline numbers (e.g. "50%
    dynamic energy saving for 11% performance degradation") are exactly
    the energy and time spreads of the global front.
    """
    if len(front) < 2:
        return (0.0, 0.0)
    times = np.array([p.time_s for p in front])
    energies = np.array([p.energy_j for p in front])
    t_min, e_min = times.min(), energies.min()
    if t_min <= 0 or e_min <= 0:
        raise ValueError("front objectives must be positive to compute spread")
    return (
        float(times.max() / t_min - 1.0),
        float(energies.max() / e_min - 1.0),
    )
