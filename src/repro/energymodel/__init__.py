"""Theory of energy predictive models [33]: application profiles,
additivity testing, constrained linear models, and variable selection.

Exports resolve lazily (PEP 562): ``from repro.energymodel import
additivity_error`` imports :mod:`repro.energymodel.additivity` and
what it needs, not the whole package, so a command loads only the
submodules it uses.
"""

from __future__ import annotations

from repro import _lazy_exports

#: Exported name -> defining submodule.
_EXPORTS = {
    "ApplicationProfile": "events",
    "compose_serial": "events",
    "AdditivityResult": "additivity",
    "additivity_error": "additivity",
    "additivity_report": "additivity",
    "LinearEnergyModel": "linear",
    "fit_energy_model": "linear",
    "EventScore": "selection",
    "energy_correlations": "selection",
    "select_events": "selection",
    "ValidationResult": "validation",
    "loocv": "validation",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
