"""Statistical test for nonfunctional relationships.

Fig. 4's central observation is that dynamic power is *not even a
function* of average CPU utilization: configurations at the same
utilization draw materially different power.  The witness-pair count
(:func:`repro.experiments.fig4_cpu_utilization.nonfunctionality_witnesses`)
demonstrates this; this module provides the principled version:

Bin the samples by the x variable; within each bin, a functional
relationship (plus measurement noise) bounds the y spread by the noise
scale.  The **nonfunctionality ratio** is the pooled within-bin
standard deviation of y divided by the y scale the measurement noise
explains.  A ratio ≲ 1 is consistent with a noisy function; a ratio
≫ 1 witnesses genuine multi-valuedness.  The verdict also reports the
worst bin, which localizes where the relation breaks (the paper's
"points with about 50% utilization").
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["NonfunctionalityVerdict", "nonfunctionality_test"]


class NonfunctionalityVerdict(NamedTuple):
    """Outcome of the binned multi-valuedness test.

    Attributes
    ----------
    ratio:
        Pooled within-bin relative y spread over the noise scale.
    worst_bin_center / worst_bin_spread:
        The x location and relative y spread of the worst bin.
    n_bins_used:
        Bins with ≥ 2 samples (others carry no spread information).
    nonfunctional:
        ``ratio > threshold`` — y is not a (noisy) function of x.
    threshold:
        Decision threshold used.
    """

    ratio: float
    worst_bin_center: float
    worst_bin_spread: float
    n_bins_used: int
    nonfunctional: bool
    threshold: float


def nonfunctionality_test(
    x: np.ndarray,
    y: np.ndarray,
    *,
    n_bins: int = 12,
    noise_scale: float = 0.025,
    threshold: float = 3.0,
) -> NonfunctionalityVerdict:
    """Test whether ``y`` is multi-valued in ``x`` beyond noise.

    Parameters
    ----------
    x, y:
        Samples of the candidate relationship (y > 0 required; spreads
        are relative).
    n_bins:
        Equal-width bins over the x range.
    noise_scale:
        Relative 1-sigma measurement noise of y — defaults to the
        paper's 2.5% protocol precision.
    threshold:
        Ratio above which the relation is declared nonfunctional.

    Raises
    ------
    ValueError
        On malformed inputs or when no bin holds two samples (the test
        has no power without repeated x values).
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("x and y must be 1-D and equal length")
    if len(xa) < 4:
        raise ValueError("need at least 4 samples")
    if np.any(ya <= 0):
        raise ValueError("y must be positive (relative spreads)")
    if n_bins < 2:
        raise ValueError("need at least 2 bins")
    if noise_scale <= 0 or threshold <= 0:
        raise ValueError("noise_scale and threshold must be positive")

    lo, hi = xa.min(), xa.max()
    if hi <= lo:
        raise ValueError("x must span a nonzero range")
    edges = np.linspace(lo, hi, n_bins + 1)
    idx = np.clip(np.digitize(xa, edges) - 1, 0, n_bins - 1)

    spreads = []
    weights = []
    worst = (0.0, 0.0)  # (spread, center)
    for b in range(n_bins):
        mask = idx == b
        if mask.sum() < 2:
            continue
        vals = ya[mask]
        rel_spread = float(vals.std(ddof=1) / vals.mean())
        spreads.append(rel_spread**2)
        weights.append(mask.sum() - 1)
        if rel_spread > worst[0]:
            worst = (rel_spread, float(xa[mask].mean()))
    if not spreads:
        raise ValueError("no bin holds two samples; test has no power")

    pooled = float(
        np.sqrt(np.average(spreads, weights=weights))
    )
    ratio = pooled / noise_scale
    return NonfunctionalityVerdict(
        ratio=ratio,
        worst_bin_center=worst[1],
        worst_bin_spread=worst[0],
        n_bins_used=len(spreads),
        nonfunctional=ratio > threshold,
        threshold=threshold,
    )
