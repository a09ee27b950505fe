"""Name-keyed device registry over ``repro-device/1`` definitions.

The registry is the single source of device truth for every layer that
resolves a device *name*: ``repro.machines.get_machine`` falls through
to it, ``repro.simgpu.calibration.calibration_for`` resolves non-core
specs through it, and the CLI derives its ``--device`` choices from
it.  A V100- or A100-class part becomes sweepable by dropping one JSON
file into ``$REPRO_DEVICE_DIR`` — no new Python module.

Resolution sources, in order:

1. the built-in entries: the paper's Table I parts (K40c, P100,
   Haswell), built straight from the in-code constants of
   :data:`repro.machines.specs.MACHINES` and
   :func:`repro.simgpu.calibration.calibration_for` — the same
   objects, so content digests cannot drift from the code;
2. every ``*.json`` file in ``$REPRO_DEVICE_DIR``
   (``os.pathsep``-separated list of directories).

A duplicate key or spec name across sources is a hard
:class:`~repro.devices.schema.DeviceSchemaError` naming both sources —
silent shadowing could pair a spec with the wrong calibration, which
the content-addressed store would faithfully persist.
"""

from __future__ import annotations

import os
from functools import lru_cache
from pathlib import Path

from repro.devices.schema import (
    DeviceDefinition,
    DeviceSchemaError,
    UnknownDeviceError,
    parse_device_document,
    read_device_document,
)
from repro.machines.specs import MACHINES, CPUSpec, GPUSpec
from repro.simgpu.calibration import GPUCalibration, calibration_for

__all__ = [
    "DeviceRegistry",
    "default_registry",
    "refresh_default_registry",
    "get_device",
    "device_spec",
    "device_calibration",
    "gpu_device_choices",
    "check_against_registry",
]


class DeviceRegistry:
    """Immutable-after-build lookup of device definitions.

    Entries are addressable by registry key (``"k40c"``) and by full
    spec name (``"Nvidia K40c"``), both case-insensitively — cache
    records, store shard sidecars and provenance manifests carry the
    full spec name, while CLIs and experiments use the short key.
    """

    def __init__(self, definitions: list[DeviceDefinition] | None = None):
        self._by_key: dict[str, DeviceDefinition] = {}
        self._by_name: dict[str, DeviceDefinition] = {}
        for definition in definitions or []:
            self.add(definition)

    def add(self, definition: DeviceDefinition) -> None:
        """Insert one definition; duplicate key/name is a schema error."""
        key = definition.key.lower()
        name = definition.spec.name.lower()
        clash = self._by_key.get(key)
        if clash is not None:
            raise DeviceSchemaError(
                f"duplicate device key {definition.key!r}: defined by "
                f"both {clash.source} and {definition.source}"
            )
        clash = self._by_name.get(name)
        if clash is not None:
            raise DeviceSchemaError(
                f"duplicate device name {definition.spec.name!r}: "
                f"defined by both {clash.source} (key "
                f"{clash.key!r}) and {definition.source} (key "
                f"{definition.key!r})"
            )
        self._by_key[key] = definition
        self._by_name[name] = definition

    # -- lookup -------------------------------------------------------------

    def find(self, name: str) -> DeviceDefinition | None:
        """Entry for a key or full spec name, or None."""
        lowered = name.lower()
        return self._by_key.get(lowered) or self._by_name.get(lowered)

    def get(self, name: str) -> DeviceDefinition:
        """Entry for a key or full spec name.

        Raises
        ------
        UnknownDeviceError
            Listing every registered device, so the caller can see
            whether a device file is missing from ``$REPRO_DEVICE_DIR``.
        """
        entry = self.find(name)
        if entry is None:
            raise UnknownDeviceError(
                f"unknown device {name!r}; registered devices: "
                f"{self.describe()}"
            )
        return entry

    def describe(self) -> str:
        """One-line ``key (spec name)`` listing for error messages."""
        if not self._by_key:
            return "(none)"
        return ", ".join(
            f"{key} ({entry.spec.name})"
            for key, entry in sorted(self._by_key.items())
        )

    # -- enumeration --------------------------------------------------------

    def entries(self) -> tuple[DeviceDefinition, ...]:
        return tuple(
            self._by_key[key] for key in sorted(self._by_key)
        )

    def keys(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_key))

    def gpu_keys(self) -> tuple[str, ...]:
        return tuple(
            key
            for key in sorted(self._by_key)
            if self._by_key[key].kind == "gpu"
        )

    def __len__(self) -> int:
        return len(self._by_key)

    def __contains__(self, name: str) -> bool:
        return self.find(name) is not None

    # -- construction -------------------------------------------------------

    @classmethod
    def load_dirs(
        cls,
        dirs: list[Path],
        definitions: list[DeviceDefinition] | None = None,
    ) -> "DeviceRegistry":
        """Build a registry from ``definitions`` plus every device file
        under ``dirs``.

        Files are loaded in sorted order per directory; any schema
        violation (including duplicates across files and definitions)
        propagates as a :class:`DeviceSchemaError` naming the source.
        """
        registry = cls(definitions)
        for directory in dirs:
            directory = Path(directory)
            if not directory.is_dir():
                raise DeviceSchemaError(
                    f"device directory {directory} does not exist"
                )
            paths = sorted(
                p
                for p in directory.iterdir()
                if p.suffix == ".json" and p.is_file()
            )
            for path in paths:
                doc = read_device_document(path)
                # Other repro artifact families (fit samples, sweep
                # saves) may share a device directory; skip them by
                # their format tag.  A *device* document with a wrong
                # version tag still fails validation loudly.
                if (
                    isinstance(doc, dict)
                    and isinstance(doc.get("format"), str)
                    and not doc["format"].startswith("repro-device")
                ):
                    continue
                registry.add(parse_device_document(doc, source=str(path)))
        return registry


#: ``repro devices show`` text of the built-in parts.
_DESCRIPTIONS = {
    "k40c": (
        "Nvidia K40c (Kepler GK110B): 15 SMX x 192 cores @ 745 MHz, "
        "12 GB GDDR5, no autoboost (Table I)."
    ),
    "p100": (
        "Nvidia P100 PCIe (Pascal GP100): 56 SM x 64 cores @ 1328 MHz, "
        "12 GB HBM2, autoboost to 1480 MHz under a 250 W cap (Table I)."
    ),
    "haswell": (
        "Dual-socket Intel Haswell E5-2670 v3: 2 x 12 cores, SMT2, "
        "64 GB DDR4 (Table I)."
    ),
}


#: ``source`` of the built-in entries; a device file's is its path.
_BUILTIN_SOURCE = "bundled"


def _builtin_definitions() -> list[DeviceDefinition]:
    """The paper's Table I parts, straight from the in-code constants."""
    return [
        DeviceDefinition(
            key=key,
            kind="gpu" if isinstance(spec, GPUSpec) else "cpu",
            spec=spec,
            calibration=(
                calibration_for(spec) if isinstance(spec, GPUSpec) else None
            ),
            description=_DESCRIPTIONS[key],
            source=_BUILTIN_SOURCE,
        )
        for key, spec in MACHINES.items()
    ]


def _user_dirs() -> list[Path]:
    raw = os.environ.get("REPRO_DEVICE_DIR", "")
    return [Path(part) for part in raw.split(os.pathsep) if part]


@lru_cache(maxsize=1)
def default_registry() -> DeviceRegistry:
    """The process-wide registry: built-ins + ``$REPRO_DEVICE_DIR``.

    Cached per process (device files are immutable inputs of a run);
    :func:`refresh_default_registry` drops the cache after the
    environment changes (tests, long-lived sessions).
    """
    return DeviceRegistry.load_dirs(_user_dirs(), _builtin_definitions())


def refresh_default_registry() -> None:
    """Forget the cached default registry."""
    default_registry.cache_clear()


# -- convenience lookups ----------------------------------------------------

def get_device(name: str) -> DeviceDefinition:
    """Default-registry lookup by key or spec name (raising)."""
    return default_registry().get(name)


def device_spec(name: str) -> GPUSpec | CPUSpec:
    """The spec of one registered device."""
    return get_device(name).spec


def device_calibration(name: str) -> GPUCalibration:
    """The calibration of one registered GPU.

    Raises
    ------
    UnknownDeviceError
        For unregistered names, or registered CPUs (which carry no
        GPU calibration block).
    """
    entry = get_device(name)
    if entry.calibration is None:
        raise UnknownDeviceError(
            f"device {entry.key!r} ({entry.spec.name}) is a "
            f"{entry.kind} and has no GPU calibration"
        )
    return entry.calibration


def gpu_device_choices() -> tuple[str, ...]:
    """GPU registry keys for CLI ``--device`` flags.

    Falls back to the built-in keys when ``$REPRO_DEVICE_DIR``
    contains a broken file, so parser construction (and ``repro
    devices validate``, the command that diagnoses the breakage) never
    dies while building argument choices; the underlying error still
    surfaces the moment a command resolves a device through
    :func:`default_registry`.
    """
    try:
        return default_registry().gpu_keys()
    except DeviceSchemaError:
        return DeviceRegistry(_builtin_definitions()).gpu_keys()


def check_against_registry(definition: DeviceDefinition) -> None:
    """Raise the registry's duplicate error if a source other than
    ``definition``'s own file defines its key or spec name.

    This is the check :func:`default_registry` makes when it loads the
    file from ``$REPRO_DEVICE_DIR``.  An entry the registry loaded from
    the same path is that file, not a clash.  When the device
    directories do not load, the file is checked against the built-in
    entries alone.

    Raises
    ------
    DeviceSchemaError
        Naming both sources, as a duplicate in the directories would.
    """
    try:
        entries = default_registry().entries()
    except DeviceSchemaError:
        entries = _builtin_definitions()
    path = Path(definition.source).resolve()
    DeviceRegistry(
        [
            entry
            for entry in entries
            if entry.source == _BUILTIN_SOURCE
            or Path(entry.source).resolve() != path
        ]
    ).add(definition)
