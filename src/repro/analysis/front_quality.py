"""Quality indicators for comparing Pareto-front approximations.

Used in two places: (a) validating that fronts computed from *measured*
(noisy) data match ground-truth fronts, and (b) scoring the budgeted
front search against the exhaustive sweep.  The indicators are the
standard multi-objective pair:

* **IGD** (inverted generational distance) — mean distance from each
  reference-front point to its nearest approximation point, in
  min-normalized objective space.  0 means every reference point is
  matched.
* **Additive ε-indicator** — the smallest ε such that shifting the
  approximation by ε (in normalized space) weakly dominates the whole
  reference front.  Captures worst-case coverage where IGD averages.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.pareto import ParetoPoint

__all__ = [
    "igd",
    "additive_epsilon",
    "normalized_objectives",
    "objective_array",
    "reference_scale",
    "normalized_igd",
    "normalized_additive_epsilon",
]


def objective_array(points: Sequence[ParetoPoint]) -> np.ndarray:
    """The points' ``(time_s, energy_j)`` as an ``(n, 2)`` float array."""
    return np.array([[p.time_s, p.energy_j] for p in points], dtype=float)


def reference_scale(reference: np.ndarray) -> np.ndarray:
    """Per-objective minima of a reference ``(n, 2)`` array: the scale
    that :func:`normalized_objectives` divides both point sets by."""
    mins = reference.min(axis=0)
    if np.any(mins <= 0):
        raise ValueError("reference objectives must be positive")
    return mins


def normalized_objectives(
    reference: Sequence[ParetoPoint], other: Sequence[ParetoPoint]
) -> tuple[np.ndarray, np.ndarray]:
    """Min-normalize both point sets by the reference front's minima.

    Objectives become multiples of the reference best time/energy, so
    indicator values read as relative distances ("0.05 ≈ 5% off").
    """
    if not reference or not other:
        raise ValueError("point sets must be non-empty")
    ref = objective_array(reference)
    oth = objective_array(other)
    mins = reference_scale(ref)
    return ref / mins, oth / mins


def igd(
    reference: Sequence[ParetoPoint], approximation: Sequence[ParetoPoint]
) -> float:
    """Inverted generational distance of ``approximation`` to ``reference``.

    Mean Euclidean distance in normalized objective space from each
    reference point to the nearest approximation point.
    """
    return normalized_igd(*normalized_objectives(reference, approximation))


def normalized_igd(ref: np.ndarray, app: np.ndarray) -> float:
    """:func:`igd` of two arrays already in normalized objective space."""
    dists = np.sqrt(
        ((ref[:, None, :] - app[None, :, :]) ** 2).sum(axis=2)
    ).min(axis=1)
    return float(dists.mean())


def additive_epsilon(
    reference: Sequence[ParetoPoint], approximation: Sequence[ParetoPoint]
) -> float:
    """Additive ε-indicator in normalized objective space.

    The smallest ε ≥ 0 such that for every reference point ``r`` there
    is an approximation point ``a`` with ``a ≤ r + ε`` componentwise.
    0 means the approximation weakly dominates the whole reference.
    """
    return normalized_additive_epsilon(
        *normalized_objectives(reference, approximation)
    )


def normalized_additive_epsilon(ref: np.ndarray, app: np.ndarray) -> float:
    """:func:`additive_epsilon` of two arrays already in normalized
    objective space."""
    # For each (r, a) pair, the ε needed is max over objectives of a-r;
    # per reference point take the best a; overall take the worst r.
    per_pair = (app[None, :, :] - ref[:, None, :]).max(axis=2)
    per_ref = per_pair.min(axis=1)
    return float(max(0.0, per_ref.max()))
