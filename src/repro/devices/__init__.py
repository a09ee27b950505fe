"""Declarative device registry: a GPU/CPU is a data file, not code.

Three layers:

* :mod:`repro.devices.schema` — the ``repro-device/1`` JSON document
  format and its validator, derived from the frozen spec and
  calibration dataclasses so it cannot drift from the code;
* :mod:`repro.devices.registry` — name-keyed lookup over the built-in
  entries (K40c, P100, Haswell — the in-code constants themselves)
  plus the JSON files in ``$REPRO_DEVICE_DIR``;
* :mod:`repro.devices.fit` — recovery of power-model calibration
  constants from (time, energy) scatter samples by least squares with
  cross-validated model selection.

``schema`` and ``registry`` import eagerly (they are the CLI's and the
resolvers' hot path); ``fit`` loads lazily on first attribute access —
it pulls in the simulator stack, which device *lookup* must not.
"""

from __future__ import annotations

from repro.devices.registry import (
    DeviceRegistry,
    default_registry,
    device_calibration,
    device_spec,
    get_device,
    gpu_device_choices,
    refresh_default_registry,
)
from repro.devices.schema import (
    DEVICE_FORMAT,
    DeviceDefinition,
    DeviceError,
    DeviceSchemaError,
    UnknownDeviceError,
    device_to_document,
    dump_device_json,
    load_device_file,
    parse_device_document,
)

__all__ = [
    "DEVICE_FORMAT",
    "DeviceDefinition",
    "DeviceError",
    "DeviceRegistry",
    "DeviceSchemaError",
    "UnknownDeviceError",
    "default_registry",
    "device_calibration",
    "device_spec",
    "device_to_document",
    "dump_device_json",
    "get_device",
    "gpu_device_choices",
    "load_device_file",
    "parse_device_document",
    "refresh_default_registry",
    # lazy (repro.devices.fit):
    "FitError",
    "FitResult",
    "FitSample",
    "fit_calibration",
    "load_samples",
    "save_samples",
    "synthesize_samples",
    "default_sample_grid",
]

_FIT_EXPORTS = {
    "FitError",
    "FitResult",
    "FitSample",
    "CandidateScore",
    "SAMPLES_FORMAT",
    "fit_calibration",
    "load_samples",
    "save_samples",
    "synthesize_samples",
    "default_sample_grid",
}


def __getattr__(name: str):
    if name in _FIT_EXPORTS:
        from repro.devices import fit

        return getattr(fit, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
