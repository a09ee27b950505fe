"""Multicore CPU simulator substrate: topology, utilization accounting
with contention imbalance, component power (incl. dTLB walks), and
RAPL counters.

Exports resolve lazily (PEP 562): ``from repro.simcpu import
HASWELL_CAL`` imports :mod:`repro.simcpu.calibration` and what it
needs, not the whole package, so a command loads only the submodules
it uses.
"""

from __future__ import annotations

from repro import _lazy_exports

#: Exported name -> defining submodule.
_EXPORTS = {
    "CPUCalibration": "calibration",
    "HASWELL_CAL": "calibration",
    "LibraryProfile": "calibration",
    "LIBRARIES": "calibration",
    "CPUPowerBreakdown": "power",
    "cpu_power": "power",
    "page_walk_rate": "power",
    "CPURunResult": "processor",
    "DGEMMConfig": "processor",
    "MulticoreCPU": "processor",
    "PARTITIONS": "processor",
    "RAPLCounters": "rapl",
    "RAPLReading": "rapl",
    "rapl_energy_j": "rapl",
    "LogicalCPU": "topology",
    "Placement": "topology",
    "place_threads": "topology",
    "UtilizationVector": "utilization",
    "contention_jitter": "utilization",
    "utilization_vector": "utilization",
}

__all__ = list(_EXPORTS)

__getattr__, __dir__ = _lazy_exports(globals(), _EXPORTS)
