"""Section III theory: energy nonproportionality from core imbalance.

The paper's theoretical contribution considers the simplest multicore
system — two homogeneous cores, each individually obeying the *simple
EP model* (``P = a·U`` dynamic power, ``t = b/U`` execution time) — and
shows that *any* utilization imbalance between the cores strictly
increases the total dynamic energy of a configuration solving a fixed
workload (equations (1)-(3)):

* balanced:            ``E_1 = 2ab``
* one core raised:     ``E_2 = ab·(U+ΔU)/U + ab       > E_1``
* raised + lowered:    ``E_3 = ab·(1 + (U+ΔU)/(U-ΔU)) > E_2 > E_1``

This module implements the two-core model exactly as in the paper
(:class:`TwoCoreModel`) and generalizes it to ``n`` homogeneous cores
(:class:`NCoreModel`) — the generalization the paper defers to future
work.  The key structural fact, verified by the property tests, is that
for a fixed workload the balanced utilization vector minimizes dynamic
energy, and energy is strictly monotone in the imbalance.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = ["TwoCoreModel", "NCoreModel"]


def _validate_utilization(u: float) -> None:
    if not (0.0 < u <= 1.0):
        raise ValueError(f"utilization must be in (0, 1], got {u}")


@dataclass(frozen=True)
class TwoCoreModel:
    """The paper's two-homogeneous-core analysis (equations (1)-(3)).

    Both cores share constants ``a`` and ``b``.  Each configuration is
    a pair of utilizations ``(u1, u2)``; the application finishes when
    the slower core finishes, and each core burns dynamic power for the
    whole application duration (the paper's ``max`` terms — a core
    that finishes early still draws power at its utilization level
    while the application runs, because the measured interval is the
    application execution).
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if self.a <= 0 or self.b <= 0:
            raise ValueError("model constants a, b must be positive")

    def execution_time(self, u1: float, u2: float) -> float:
        """Application execution time: the slower core's completion."""
        _validate_utilization(u1)
        _validate_utilization(u2)
        return max(self.b / u1, self.b / u2)

    def dynamic_energy(self, u1: float, u2: float) -> float:
        """Total dynamic energy of a configuration ``(u1, u2)``.

        ``E = a·u1·max(b/u1, b/u2) + a·u2·max(b/u1, b/u2)`` — each core
        draws ``a·u_i`` for the application duration.
        """
        t = self.execution_time(u1, u2)
        return self.a * (u1 + u2) * t

    # -- The paper's three named configurations --------------------------

    def e1_balanced(self, u: float) -> float:
        """Equation (1): both cores at utilization ``U`` → ``2ab``."""
        return self.dynamic_energy(u, u)

    def e2_one_raised(self, u: float, delta: float) -> float:
        """Equation (2): core 1 at ``U+ΔU``, core 2 at ``U``."""
        self._validate_delta_raise(u, delta)
        return self.dynamic_energy(u + delta, u)

    def e3_raised_and_lowered(self, u: float, delta: float) -> float:
        """Equation (3): core 1 at ``U+ΔU``, core 2 at ``U−ΔU``.

        Average utilization is preserved at ``U`` — this is the case the
        points on lines C and D of Fig. 4 exemplify: same average
        utilization, strictly larger dynamic energy and worse
        performance.
        """
        self._validate_delta_raise(u, delta)
        if delta >= u:
            raise ValueError("delta must be < u so the lowered core stays busy")
        return self.dynamic_energy(u + delta, u - delta)

    def _validate_delta_raise(self, u: float, delta: float) -> None:
        _validate_utilization(u)
        if delta <= 0:
            raise ValueError("delta must be positive")
        if u + delta > 1.0:
            raise ValueError("raised utilization must not exceed 1")

    def inequality_chain(self, u: float, delta: float) -> tuple[float, float, float]:
        """Return ``(E1, E2, E3)``; the paper proves ``E3 > E2 > E1``."""
        return (
            self.e1_balanced(u),
            self.e2_one_raised(u, delta),
            self.e3_raised_and_lowered(u, delta),
        )


@dataclass(frozen=True)
class NCoreModel:
    """Generalization of the Section III analysis to ``n`` homogeneous cores.

    A configuration is a utilization vector ``(u_1, ..., u_n)``; the
    workload is fixed, so every core must complete work ``b`` and the
    application time is ``max_i b/u_i``.  Dynamic energy is
    ``E(u) = a · (Σ_i u_i) · max_i (b / u_i)``.

    Structural facts (verified by property tests in
    ``tests/test_core_theory.py``):

    * For a fixed average utilization ``Ū``, the balanced vector
      ``u_i = Ū`` uniquely minimizes ``E`` (value ``n·a·b``).
    * ``E`` is invariant under permutations of ``u``.
    * Raising any single ``u_i`` from a balanced vector strictly
      increases ``E`` (the n-core analogue of equation (2)).
    """

    a: float
    b: float
    n: int

    def __post_init__(self) -> None:
        if self.a <= 0 or self.b <= 0:
            raise ValueError("model constants a, b must be positive")
        if self.n < 1:
            raise ValueError("need at least one core")

    def _validate(self, utilizations: Sequence[float]) -> np.ndarray:
        u = np.asarray(utilizations, dtype=float)
        if u.shape != (self.n,):
            raise ValueError(f"expected {self.n} utilizations, got shape {u.shape}")
        if np.any(u <= 0) or np.any(u > 1):
            raise ValueError("all utilizations must lie in (0, 1]")
        return u

    def execution_time(self, utilizations: Sequence[float]) -> float:
        """Application time: completion of the slowest core."""
        u = self._validate(utilizations)
        return float(self.b / u.min())

    def dynamic_energy(self, utilizations: Sequence[float]) -> float:
        """Total dynamic energy ``a · Σu_i · max_i(b/u_i)``."""
        u = self._validate(utilizations)
        return float(self.a * u.sum() * (self.b / u.min()))

    def balanced_energy(self) -> float:
        """Energy of any balanced configuration: ``n·a·b`` (U cancels)."""
        return self.n * self.a * self.b

    def imbalance(self, utilizations: Sequence[float]) -> float:
        """Max/min utilization ratio minus one (0 for balanced vectors)."""
        u = self._validate(utilizations)
        return float(u.max() / u.min() - 1.0)
