"""Cross-validation for linear energy predictive models.

In-sample fit quality overstates a model's worth — the energy-modelling
literature the paper builds on ([33], [35]-[37]) validates on held-out
applications.  This module provides leave-one-out cross-validation
(LOOCV, the right tool for the small profile sets these studies use)
over :class:`~repro.energymodel.events.ApplicationProfile` sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.energymodel.events import ApplicationProfile
from repro.energymodel.linear import fit_energy_model

__all__ = ["ValidationResult", "loocv"]


@dataclass(frozen=True)
class ValidationResult:
    """Held-out prediction quality of a model family.

    Attributes
    ----------
    errors:
        Per-held-out-profile relative prediction errors.
    mean_error / max_error:
        Aggregates of ``errors``.
    n_folds:
        Number of train/test splits evaluated.
    """

    errors: tuple[float, ...]
    n_folds: int

    @property
    def mean_error(self) -> float:
        return float(np.mean(self.errors))

    @property
    def max_error(self) -> float:
        return float(np.max(self.errors))


def loocv(
    profiles: list[ApplicationProfile], event_names: list[str]
) -> ValidationResult:
    """Leave-one-out cross-validation of the linear energy model.

    Fits on all-but-one profile and predicts the held-out one, for each
    profile in turn.  Requires one more profile than events so every
    training fold stays determined.
    """
    if len(profiles) < len(event_names) + 1:
        raise ValueError(
            "LOOCV needs at least one more profile than model events"
        )
    errors = []
    for i, held_out in enumerate(profiles):
        training = profiles[:i] + profiles[i + 1 :]
        model = fit_energy_model(training, event_names)
        errors.append(model.relative_error(held_out))
    return ValidationResult(errors=tuple(errors), n_folds=len(profiles))
