"""The ``repro-device/1`` declarative device schema.

A GPU or CPU is a *data file*, not a module: one JSON document
carrying the Table-I specification block and (for GPUs) the
calibration block of :class:`repro.simgpu.calibration.GPUCalibration`.
The field set is derived directly from the frozen dataclasses the
simulators consume (:class:`repro.machines.specs.GPUSpec`,
:class:`repro.machines.specs.CPUSpec`), so the schema can never drift
from the code: a constant added to a dataclass is immediately required
(or optional, if it has a default) in every device file.

Document layout::

    {
      "format": "repro-device/1",
      "key": "k40c",          # registry key (lowercase slug)
      "kind": "gpu",          # "gpu" or "cpu"
      "description": "...",   # optional free text
      "spec": {               # every field of GPUSpec / CPUSpec
        "name": "Nvidia K40c",
        "cuda_cores": 2880,
        ...
      },
      "calibration": {        # every field of GPUCalibration (gpu only)
        "lsu_lanes": 32,
        ...
      }
    }

CPU documents nest the three cache levels as sub-objects
(``spec.l1d`` etc. with ``capacity_bytes`` / ``line_bytes`` /
``shared_by``) and carry no ``calibration`` block — the CPU power
model's constants are library-level (:mod:`repro.simcpu.calibration`)
rather than per-part.

Every validation failure raises :class:`DeviceSchemaError` with the
offending file and field named — an actionable error, never a
traceback from deep inside a dataclass constructor.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
from pathlib import Path
from typing import Any, NamedTuple

from repro.machines.specs import CacheSpec, CPUSpec, GPUSpec
from repro.simgpu.calibration import GPUCalibration

__all__ = [
    "DEVICE_FORMAT",
    "DeviceError",
    "DeviceSchemaError",
    "UnknownDeviceError",
    "DeviceDefinition",
    "parse_device_document",
    "read_device_document",
    "load_device_file",
    "device_to_document",
    "dump_device_json",
]

#: Schema version tag every device file must carry.
DEVICE_FORMAT = "repro-device/1"

#: Registry keys are lowercase slugs (filesystem- and CLI-safe).
_KEY_RE = re.compile(r"^[a-z0-9][a-z0-9_-]*$")


class DeviceError(Exception):
    """Base class of every device-registry error."""


class DeviceSchemaError(DeviceError, ValueError):
    """A device document violates the ``repro-device/1`` schema.

    The message always names the source (file or caller-supplied
    label) and the offending field, so the fix is evident from the
    error alone.
    """


class UnknownDeviceError(DeviceError, LookupError):
    """A device name resolved against the registry is not registered.

    The message lists the available registry entries so the caller can
    see what *is* known (and whether a device file is merely missing
    from ``$REPRO_DEVICE_DIR``).
    """


class DeviceDefinition(NamedTuple):
    """One validated device document, ready for registry insertion."""

    key: str
    kind: str  # "gpu" | "cpu"
    spec: GPUSpec | CPUSpec
    calibration: GPUCalibration | None
    description: str = ""
    #: Where the definition came from: a file path, or ``"bundled"``
    #: for the registry's built-in entries.
    source: str = "<memory>"


# -- type machinery ---------------------------------------------------------

#: Dataclass annotation strings → runtime validators.  The dataclasses
#: use ``from __future__ import annotations`` so field types arrive as
#: strings; mapping them here keeps the schema in lockstep with the
#: code without importing typing machinery.
_SCALAR_TYPES = {"int", "float", "bool", "str"}


def _type_name(field: dataclasses.Field) -> str:
    t = field.type
    return t if isinstance(t, str) else getattr(t, "__name__", str(t))


def _check_scalar(
    source: str, where: str, name: str, value: Any, type_name: str
) -> Any:
    """Validate and coerce one scalar field; raises DeviceSchemaError."""
    label = f"{source}: [{where}].{name}"
    if type_name == "bool":
        if not isinstance(value, bool):
            raise DeviceSchemaError(
                f"{label} must be a boolean (got {value!r})"
            )
        return value
    if type_name == "str":
        if not isinstance(value, str) or not value:
            raise DeviceSchemaError(
                f"{label} must be a non-empty string (got {value!r})"
            )
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise DeviceSchemaError(
            f"{label} must be a number (got {value!r})"
        )
    if type_name == "int":
        if not isinstance(value, int):
            raise DeviceSchemaError(
                f"{label} must be an integer (got {value!r})"
            )
        return value
    # float fields accept ints (hand-written JSON drops trailing ".0").
    value = float(value)
    if not math.isfinite(value):
        raise DeviceSchemaError(
            f"{label} must be a finite number (got {value!r})"
        )
    return value


def _build_dataclass(
    cls: type, table: Any, *, source: str, where: str
) -> Any:
    """Construct ``cls`` from a raw mapping, field by field.

    The required/optional split and the per-field types come straight
    from ``dataclasses.fields(cls)``; unknown keys are rejected so a
    typo cannot silently become a no-op.
    """
    if not isinstance(table, dict):
        raise DeviceSchemaError(
            f"{source}: [{where}] must be a table/object "
            f"(got {type(table).__name__})"
        )
    known = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(set(table) - set(known))
    if unknown:
        raise DeviceSchemaError(
            f"{source}: [{where}] has unknown field(s) "
            f"{', '.join(unknown)}; expected only: "
            f"{', '.join(sorted(known))}"
        )
    kwargs: dict[str, Any] = {}
    for name, field in known.items():
        if name not in table:
            if field.default is not dataclasses.MISSING:
                continue  # optional: dataclass default applies
            if field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
                continue
            raise DeviceSchemaError(
                f"{source}: [{where}] is missing required field "
                f"{name!r} ({_type_name(field)})"
            )
        value = table[name]
        type_name = _type_name(field)
        if type_name == "CacheSpec":
            kwargs[name] = _build_dataclass(
                CacheSpec, value, source=source, where=f"{where}.{name}"
            )
        elif type_name in _SCALAR_TYPES:
            kwargs[name] = _check_scalar(source, where, name, value, type_name)
        else:  # pragma: no cover - no such field today
            raise DeviceSchemaError(
                f"{source}: [{where}].{name} has unsupported schema type "
                f"{type_name!r}"
            )
    return cls(**kwargs)


# -- document parsing -------------------------------------------------------

def parse_device_document(
    doc: Any, *, source: str = "<memory>"
) -> DeviceDefinition:
    """Validate one raw ``repro-device/1`` mapping into a definition.

    Raises
    ------
    DeviceSchemaError
        On any schema violation: wrong/missing format tag, bad key or
        kind, missing/unknown/ill-typed fields, non-finite constants.
    """
    if not isinstance(doc, dict):
        raise DeviceSchemaError(
            f"{source}: device document must be a table/object "
            f"(got {type(doc).__name__})"
        )
    fmt = doc.get("format")
    if fmt != DEVICE_FORMAT:
        raise DeviceSchemaError(
            f"{source}: unknown schema version {fmt!r}; this build "
            f"reads {DEVICE_FORMAT!r} only"
        )
    key = doc.get("key")
    if not isinstance(key, str) or not _KEY_RE.fullmatch(key):
        raise DeviceSchemaError(
            f"{source}: 'key' must be a lowercase slug "
            f"(letters/digits/-/_), got {key!r}"
        )
    kind = doc.get("kind")
    if kind not in ("gpu", "cpu"):
        raise DeviceSchemaError(
            f"{source}: 'kind' must be 'gpu' or 'cpu', got {kind!r}"
        )
    description = doc.get("description", "")
    if not isinstance(description, str):
        raise DeviceSchemaError(
            f"{source}: 'description' must be a string, got "
            f"{description!r}"
        )
    extra = sorted(
        set(doc) - {"format", "key", "kind", "description", "spec",
                    "calibration"}
    )
    if extra:
        raise DeviceSchemaError(
            f"{source}: unknown top-level field(s) {', '.join(extra)}"
        )
    if "spec" not in doc:
        raise DeviceSchemaError(f"{source}: missing required [spec] table")

    if kind == "gpu":
        spec = _build_dataclass(
            GPUSpec, doc["spec"], source=source, where="spec"
        )
        if "calibration" not in doc:
            raise DeviceSchemaError(
                f"{source}: GPU devices require a [calibration] table "
                f"(every field of GPUCalibration)"
            )
        cal = _build_dataclass(
            GPUCalibration, doc["calibration"], source=source,
            where="calibration",
        )
    else:
        spec = _build_dataclass(
            CPUSpec, doc["spec"], source=source, where="spec"
        )
        if "calibration" in doc:
            raise DeviceSchemaError(
                f"{source}: CPU devices take no [calibration] table "
                f"(CPU power constants are library-level; see "
                f"repro.simcpu.calibration)"
            )
        cal = None
    return DeviceDefinition(
        key=key,
        kind=kind,
        spec=spec,
        calibration=cal,
        description=description,
        source=source,
    )


def read_device_document(path: str | Path) -> Any:
    """Parse one ``.json`` file into a raw document (no schema).

    The syntax half of :func:`load_device_file`, split out so the
    registry can inspect a document's ``format`` tag before committing
    to device validation (other ``repro-*/N`` artifacts — fit samples,
    sweep saves — may share a ``$REPRO_DEVICE_DIR`` directory).
    """
    path = Path(path)
    if path.suffix != ".json":
        raise DeviceSchemaError(
            f"{path}: unsupported device-file suffix {path.suffix!r} "
            f"(expected .json)"
        )
    try:
        return json.loads(path.read_text())
    except OSError as exc:
        raise DeviceSchemaError(f"{path}: unreadable device file: {exc}")
    except json.JSONDecodeError as exc:
        raise DeviceSchemaError(f"{path}: invalid JSON: {exc}")


def load_device_file(path: str | Path) -> DeviceDefinition:
    """Load and validate one ``.json`` device file."""
    return parse_device_document(
        read_device_document(path), source=str(Path(path))
    )


# -- document generation ----------------------------------------------------

def device_to_document(
    key: str,
    spec: GPUSpec | CPUSpec,
    calibration: GPUCalibration | None = None,
    *,
    description: str = "",
) -> dict[str, Any]:
    """The ``repro-device/1`` mapping of one in-memory device.

    Inverse of :func:`parse_device_document`: floats survive the JSON
    round trip bit-for-bit (shortest-``repr`` encoding), which is what
    ``repro devices show KEY > new.json`` and ``repro devices fit
    --output`` rely on.
    """
    kind = "gpu" if isinstance(spec, GPUSpec) else "cpu"
    doc: dict[str, Any] = {
        "format": DEVICE_FORMAT,
        "key": key,
        "kind": kind,
    }
    if description:
        doc["description"] = description
    doc["spec"] = dataclasses.asdict(spec)
    if kind == "gpu":
        if calibration is None:
            raise DeviceSchemaError(
                f"GPU device {key!r} requires a calibration"
            )
        doc["calibration"] = dataclasses.asdict(calibration)
    elif calibration is not None:
        raise DeviceSchemaError(f"CPU device {key!r} takes no calibration")
    return doc


def dump_device_json(
    path: str | Path,
    key: str,
    spec: GPUSpec | CPUSpec,
    calibration: GPUCalibration | None = None,
    *,
    description: str = "",
) -> None:
    """Write one device as a ``repro-device/1`` JSON file."""
    doc = device_to_document(
        key, spec, calibration, description=description
    )
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")
