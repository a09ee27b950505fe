"""GPU simulator substrate: occupancy, kernel resources, memory
hierarchy, pipeline timing, component power, DVFS, CUPTI.

Exports resolve lazily (PEP 562): ``from repro.simgpu import
GPUDevice`` imports :mod:`repro.simgpu.device` and what it needs, not
the whole package, so a command loads only the submodules it uses.
"""

from __future__ import annotations

from repro import _lazy_exports

#: Exported name -> defining submodule.
_EXPORTS = {
    "BatchRunResult": "batch",
    "batch_run_matmul": "batch",
    "GPUCalibration": "calibration",
    "K40C_CAL": "calibration",
    "P100_CAL": "calibration",
    "calibration_for": "calibration",
    "CuptiProfiler": "cupti",
    "EventReading": "cupti",
    "EVENT_NAMES": "cupti",
    "GPUDevice": "device",
    "KernelRunResult": "device",
    "OperatingPoint": "dvfs",
    "solve_operating_clock": "dvfs",
    "KernelResources": "kernel",
    "avg_rows_per_warp": "kernel",
    "matmul_kernel_resources": "kernel",
    "max_group_size": "kernel",
    "shared_mem_per_block": "kernel",
    "TrafficModel": "memhier",
    "coalescing_efficiency": "memhier",
    "matmul_traffic": "memhier",
    "NVMLSample": "nvml",
    "NVMLSensor": "nvml",
    "Occupancy": "occupancy",
    "compute_occupancy": "occupancy",
    "RooflinePlacement": "roofline",
    "classify_matmul": "roofline",
    "PowerBreakdown": "power",
    "aux_decay": "power",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
