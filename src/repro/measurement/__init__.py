"""Measurement substrate: WattsUp Pro simulation, HCLWattsUp energy
extraction, and the paper's Student-t repetition protocol.

Exports resolve lazily (PEP 562): ``from repro.measurement import
PowerTrace`` imports :mod:`repro.measurement.powermeter` and what it
needs, not the whole package, so a command loads only the submodules
it uses.
"""

from __future__ import annotations

from repro import _lazy_exports

#: Exported name -> defining submodule.
_EXPORTS = {
    "PowerPhase": "powermeter",
    "PowerTrace": "powermeter",
    "PowerSample": "powermeter",
    "PowerMeter": "powermeter",
    "EnergyReading": "hclwattsup",
    "HCLWattsUp": "hclwattsup",
    "MeasurementResult": "stats",
    "NormalityCheck": "stats",
    "confidence_halfwidth": "stats",
    "run_until_confident": "stats",
    "pearson_normality_check": "stats",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
