"""Energy-proportionality metrics from the literature the paper surveys.

The related-work section (Section II.B) reviews several quantitative EP
metrics, all defined on the functional relationship between a server's
power consumption and its utilization.  This module implements the
ones the EP-metric study (``repro experiment ep-metrics``) scores the
simulated platforms with:

* :func:`ryckbosch_ep` — Ryckbosch, Polfliet & Eeckhout [5]: one minus
  the area between the actual and ideal power curves, normalized by the
  area under the ideal curve.
* :func:`wong_annavaram_pr` — Wong & Annavaram [6]: the
  proportionality ratio (PR), dynamic range over peak power.
* :func:`hsu_poole_ep` — Hsu & Poole [30]: EP = 2 − SPECpower-style
  ratio of average actual to average ideal normalized power.
* :func:`idle_to_peak_ratio` — Barroso & Hölzle's [4] original concern:
  the fraction of peak power burned at idle.

All metrics take a power-vs-utilization curve sampled at arbitrary
utilization points.  The *ideal* (energy-proportional) curve is the
straight line from ``(0, P_idle=0 contribution)`` to ``(1, P_peak)``;
following [5] and [6] we use the convention that the ideal server
consumes zero power at zero utilization and ``P_peak`` at full
utilization.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = [
    "ryckbosch_ep",
    "wong_annavaram_pr",
    "hsu_poole_ep",
    "idle_to_peak_ratio",
]


def _curve(
    utilization: Sequence[float], power_w: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """Validate and sort a sampled power-vs-utilization curve."""
    u = np.asarray(utilization, dtype=float)
    p = np.asarray(power_w, dtype=float)
    if u.shape != p.shape or u.ndim != 1:
        raise ValueError("utilization and power must be 1-D and equal length")
    if len(u) < 2:
        raise ValueError("need at least 2 samples")
    if np.any(u < 0) or np.any(u > 1):
        raise ValueError("utilization samples must lie in [0, 1]")
    if np.any(p < 0):
        raise ValueError("power samples must be non-negative")
    order = np.argsort(u)
    u, p = u[order], p[order]
    if u[-1] <= u[0]:
        raise ValueError("utilization samples must span a nonzero range")
    return u, p


def ryckbosch_ep(
    utilization: Sequence[float], power_w: Sequence[float]
) -> float:
    """EP metric of Ryckbosch et al. [5].

    ``EP = 1 − A_between / A_ideal`` where ``A_between`` is the area
    between the measured power curve and the ideal proportional line
    ``P_ideal(u) = u · P_peak`` and ``A_ideal`` the area under the ideal
    line, both integrated (trapezoidally) over the sampled utilization
    range.  A perfectly proportional server scores 1; a server burning
    peak power at idle scores 0 (when sampled over [0, 1]).
    """
    u, p = _curve(utilization, power_w)
    p_peak = p[-1]
    if p_peak <= 0:
        raise ValueError("peak power must be positive")
    ideal = u * p_peak
    a_between = float(np.trapezoid(np.abs(p - ideal), u))
    a_ideal = float(np.trapezoid(ideal, u))
    return 1.0 - a_between / a_ideal


def wong_annavaram_pr(
    utilization: Sequence[float], power_w: Sequence[float]
) -> float:
    """Proportionality ratio (PR) of Wong & Annavaram [6].

    ``PR = dynamic range / peak = (P_peak − P_idle) / P_peak``.  A
    perfectly proportional server (zero idle power) has PR = 1.
    """
    u, p = _curve(utilization, power_w)
    if p[-1] <= 0:
        raise ValueError("peak power must be positive")
    return float((p[-1] - p[0]) / p[-1])


def hsu_poole_ep(
    utilization: Sequence[float], power_w: Sequence[float]
) -> float:
    """EP metric in the style of Hsu & Poole [30].

    ``EP = 2 − mean(P(u)/P_peak) / mean(u)`` over the sampled range:
    the average normalized power divided by the average normalized load,
    reflected so 1 is perfect proportionality and lower is worse.  For a
    through-origin linear curve the ratio of means is 1 and EP = 1; a
    flat curve at peak power sampled over [0,1] scores EP = 0.
    """
    u, p = _curve(utilization, power_w)
    if p[-1] <= 0:
        raise ValueError("peak power must be positive")
    mean_u = float(np.mean(u))
    if mean_u <= 0:
        raise ValueError("mean utilization must be positive")
    return 2.0 - float(np.mean(p / p[-1])) / mean_u


def idle_to_peak_ratio(
    utilization: Sequence[float], power_w: Sequence[float]
) -> float:
    """Fraction of peak power consumed at the lowest sampled utilization.

    Barroso & Hölzle [4] observed servers burning ~50% of peak power
    while idle; this ratio is the simplest EP indicator.
    """
    u, p = _curve(utilization, power_w)
    if p[-1] <= 0:
        raise ValueError("peak power must be positive")
    return float(p[0] / p[-1])
