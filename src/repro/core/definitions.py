"""Formal strong and weak energy-proportionality definitions and checks.

The paper's first contribution is the formalization of two notions of
energy proportionality (EP) for microprocessors:

* **Strong EP** — dynamic energy is linear in work: ``E_d = c · W``.
  An application sweep over workload sizes satisfies strong EP when a
  one-parameter linear-through-origin fit explains the measured
  energies to within measurement precision.

* **Weak EP** — dynamic energy is *constant* over all application
  configurations solving the same workload (given load-balanced
  configurations with one thread per identical abstract processor).
  A configuration sweep satisfies weak EP when the dispersion of the
  measured energies is within measurement precision.

Both checks here are statistical: measurements carry the 2.5% relative
precision of the paper's WattsUp protocol, so the verdicts use a
tolerance derived from that precision rather than exact equality.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

import numpy as np

__all__ = [
    "StrongEPResult",
    "WeakEPResult",
    "check_strong_ep",
    "check_weak_ep",
]

#: Relative measurement precision of the paper's statistical protocol
#: (sample mean within a 95% CI of half-width 2.5% of the mean).
PAPER_PRECISION = 0.025


class StrongEPResult(NamedTuple):
    """Verdict of a strong-EP linearity check.

    Attributes
    ----------
    holds:
        True when the proportional model explains the data to within
        ``tolerance``.
    coefficient:
        Least-squares estimate of ``c`` in ``E_d = c · W``.
    max_relative_deviation:
        Largest ``|E_i - c·W_i| / (c·W_i)`` over the sweep — the
        worst-case violation of proportionality.
    r_squared:
        Coefficient of determination of the through-origin fit.
    tolerance:
        Relative deviation threshold used for the verdict.
    """

    holds: bool
    coefficient: float
    max_relative_deviation: float
    r_squared: float
    tolerance: float


class WeakEPResult(NamedTuple):
    """Verdict of a weak-EP constancy check over a configuration sweep.

    Attributes
    ----------
    holds:
        True when all configuration energies agree to within
        ``tolerance`` of their mean.
    mean_energy_j:
        Mean dynamic energy over the configurations.
    max_relative_spread:
        ``(max - min) / min`` of the configuration energies — the
        energy-saving opportunity weak-EP violation creates.
    coefficient_of_variation:
        Standard deviation divided by the mean.
    tolerance:
        Relative threshold used for the verdict.
    """

    holds: bool
    mean_energy_j: float
    max_relative_spread: float
    coefficient_of_variation: float
    tolerance: float


def check_strong_ep(
    work: Sequence[float],
    energy_j: Sequence[float],
    *,
    tolerance: float = 3 * PAPER_PRECISION,
) -> StrongEPResult:
    """Test whether ``E_d = c·W`` holds over a workload sweep.

    Parameters
    ----------
    work:
        Work amounts ``W`` (e.g. ``5·N²·log2 N`` for the 2D-FFT), all
        strictly positive.
    energy_j:
        Measured dynamic energies, same length as ``work``.
    tolerance:
        Maximum relative deviation from the proportional fit for the
        verdict to be "holds".  Defaults to three times the paper's
        measurement precision, so genuine proportionality passes despite
        measurement noise while the order-of-magnitude violations in
        Fig. 1 fail decisively.
    """
    w = np.asarray(work, dtype=float)
    e = np.asarray(energy_j, dtype=float)
    if w.shape != e.shape or w.ndim != 1:
        raise ValueError("work and energy must be 1-D sequences of equal length")
    if len(w) < 3:
        raise ValueError("need at least 3 points to assess linearity")
    if np.any(w <= 0) or np.any(e < 0):
        raise ValueError("work must be positive and energy non-negative")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")

    # Through-origin least squares: c = <W,E> / <W,W>.
    c = float(np.dot(w, e) / np.dot(w, w))
    predicted = c * w
    resid = e - predicted
    with np.errstate(divide="ignore", invalid="ignore"):
        rel_dev = np.abs(resid) / predicted
    max_rel = float(np.max(rel_dev)) if c > 0 else math.inf
    ss_res = float(np.dot(resid, resid))
    ss_tot = float(np.dot(e - e.mean(), e - e.mean()))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return StrongEPResult(
        holds=max_rel <= tolerance,
        coefficient=c,
        max_relative_deviation=max_rel,
        r_squared=r2,
        tolerance=tolerance,
    )


def check_weak_ep(
    energy_j: Sequence[float],
    *,
    tolerance: float = 3 * PAPER_PRECISION,
) -> WeakEPResult:
    """Test whether dynamic energy is constant across configurations.

    ``energy_j`` holds the measured dynamic energies of load-balanced
    application configurations all solving the *same* workload.  Weak EP
    holds when every energy lies within ``tolerance`` (relative) of the
    mean.  The returned ``max_relative_spread`` is the quantity the
    paper turns into an optimization opportunity: a 50% spread means a
    50% dynamic-energy saving is available by picking the right
    configuration.
    """
    e = np.asarray(energy_j, dtype=float)
    if e.ndim != 1 or len(e) < 2:
        raise ValueError("need at least 2 configuration energies")
    if np.any(e <= 0):
        raise ValueError("energies must be positive")
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    mean = float(e.mean())
    spread = float(e.max() / e.min() - 1.0)
    cv = float(e.std(ddof=1) / mean)
    holds = bool(np.all(np.abs(e - mean) <= tolerance * mean))
    return WeakEPResult(
        holds=holds,
        mean_energy_j=mean,
        max_relative_spread=spread,
        coefficient_of_variation=cv,
        tolerance=tolerance,
    )
