"""Additivity testing per the theory of energy predictive models [33].

"The property is based on an intuitive and simple rule that if a model
variable is employed in a linear energy predictive model, its count for
a *compound* application should be equal to the sum of its counts for
the executions of the base applications" (paper, Section IV).

:func:`additivity_error` computes the relative additivity error of one
quantity; :func:`additivity_report` scores every event of a
(base, base, compound) profile triple, which is how the paper selects
CUPTI events — and how Fig. 6 diagnoses the 58 W auxiliary component
(dynamic energy is non-additive while execution time is additive).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.energymodel.events import ApplicationProfile

__all__ = ["AdditivityResult", "additivity_error", "additivity_report"]


class AdditivityResult(NamedTuple):
    """Additivity verdict for one quantity.

    ``error`` is relative: ``|compound − (a + b)| / (a + b)``.
    """

    quantity: str
    base_sum: float
    compound: float
    error: float
    additive: bool


def additivity_error(base_sum: float, compound: float) -> float:
    """Relative additivity error ``|compound − base_sum| / base_sum``.

    A zero base sum with a zero compound is perfectly additive (0.0);
    a zero base sum with a nonzero compound is maximally non-additive
    (returns ``inf``).
    """
    if base_sum < 0 or compound < 0:
        raise ValueError("counts must be non-negative")
    if base_sum == 0:
        return 0.0 if compound == 0 else float("inf")
    return abs(compound - base_sum) / base_sum


def additivity_report(
    a: ApplicationProfile,
    b: ApplicationProfile,
    compound: ApplicationProfile,
    *,
    tolerance: float = 0.05,
) -> dict[str, AdditivityResult]:
    """Score every event plus energy and time for additivity.

    Returns a mapping quantity → :class:`AdditivityResult`; quantities
    ``"__energy__"`` and ``"__time__"`` are always included.  Events
    missing from any of the three profiles are skipped (they cannot be
    scored).
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    out: dict[str, AdditivityResult] = {}
    shared = set(a.events) & set(b.events) & set(compound.events)
    for name in sorted(shared):
        s = a.events[name] + b.events[name]
        c = compound.events[name]
        err = additivity_error(s, c)
        out[name] = AdditivityResult(
            quantity=name,
            base_sum=s,
            compound=c,
            error=err,
            additive=err <= tolerance,
        )
    for label, s, c in (
        ("__energy__", a.energy_j + b.energy_j, compound.energy_j),
        ("__time__", a.time_s + b.time_s, compound.time_s),
    ):
        err = additivity_error(s, c)
        out[label] = AdditivityResult(
            quantity=label, base_sum=s, compound=c, error=err, additive=err <= tolerance
        )
    return out
