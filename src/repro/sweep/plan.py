"""Declarative sweep requests and device resolution.

A :class:`SweepRequest` names one ``(device, N)`` sweep — device (by
registry key or spec), matrix size, workload ``T = G·R``, optional
tile floor and calibration override — and resolves to the exact
configuration list the scalar reference path enumerates.  The planner
evaluates requests; everything about *what* to evaluate lives here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.apps.matmul_gpu import ConfigEnumeration, MatmulConfig, MatmulGPUApp
from repro.machines.specs import GPUSpec, get_machine
from repro.simgpu.calibration import GPUCalibration, calibration_for
from repro.sweep.keys import FIELD_MAX

__all__ = ["SweepRequest", "resolve_device"]


def resolve_device(device: str | GPUSpec) -> GPUSpec:
    """Resolve a machine-registry key (``"k40c"``/``"p100"``) or spec."""
    if isinstance(device, GPUSpec):
        return device
    spec = get_machine(device)
    if not isinstance(spec, GPUSpec):
        raise ValueError(f"machine {device!r} is not a GPU")
    return spec


@dataclass(frozen=True)
class SweepRequest:
    """One ``(device, N)`` sweep over the valid configuration space.

    Attributes
    ----------
    device:
        Machine-registry key or :class:`GPUSpec`.
    n:
        Matrix size N.
    total_products:
        Workload T = G·R shared by every configuration, at most
        ``FIELD_MAX``: R runs up to T, and the packed key's R field
        must hold it.
    min_bs:
        Smallest tile admitted; None applies the app's sweep default
        (BS ≥ 4, the paper's populated region).
    cal:
        Calibration override (sensitivity studies); None uses the
        device's calibration.
    """

    device: str | GPUSpec
    n: int
    total_products: int = 24
    min_bs: int | None = None
    cal: GPUCalibration | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.total_products > FIELD_MAX:
            raise ValueError(
                f"total_products must be at most {FIELD_MAX} "
                f"(got {self.total_products})"
            )

    @property
    def spec(self) -> GPUSpec:
        return resolve_device(self.device)

    @property
    def calibration(self) -> GPUCalibration:
        return self.cal if self.cal is not None else calibration_for(self.spec)

    def app(self) -> MatmulGPUApp:
        """The matmul application this request sweeps."""
        return MatmulGPUApp(
            self.spec, self.calibration, total_products=self.total_products
        )

    def enumeration(self) -> ConfigEnumeration:
        """The configurations as the shared memo entry, with their
        packed key columns (:class:`~repro.apps.matmul_gpu.
        ConfigEnumeration`)."""
        return self.app().sweep_enumeration(min_bs=self.min_bs)

    def configs(self) -> list[MatmulConfig]:
        """The configuration list, in the serial reference order."""
        return list(self.enumeration())
