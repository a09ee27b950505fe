"""The contract of the scalar models' per-call result records.

``KernelRunResult``, ``PowerBreakdown`` and ``OperatingPoint``
(``repro.simgpu``) and ``CPURunResult``, ``CPUPowerBreakdown`` and
``UtilizationVector`` (``repro.simcpu``) are immutable named tuples:
their fields keep the documented order, no field can be reassigned,
and the derived ``dynamic_w`` is the left-to-right sum of the
components, bit for bit.
"""

from __future__ import annotations

import pytest

from repro.machines.specs import HASWELL, K40C, P100
from repro.simcpu.processor import DGEMMConfig, MulticoreCPU
from repro.simgpu.calibration import P100_CAL
from repro.simgpu.device import GPUDevice
from repro.simgpu.dvfs import solve_operating_clock

#: Each record's fields, in the documented order.
FIELDS = {
    "KernelRunResult": (
        "time_s", "dynamic_energy_j", "dynamic_power_w", "clock_hz",
        "throttled", "occupancy", "power", "resources", "r",
        "product_time_s",
    ),
    "PowerBreakdown": ("compute_w", "dram_w", "activity_w", "aux_w", "leakage_w"),
    "OperatingPoint": ("clock_hz", "board_power_w", "throttled"),
    "CPURunResult": (
        "time_s", "dynamic_energy_j", "gflops", "avg_utilization",
        "utilization", "power", "placement", "config", "n",
    ),
    "CPUPowerBreakdown": ("cores_w", "flops_w", "uncore_w", "dram_w", "dtlb_w"),
    "UtilizationVector": ("per_cpu", "wall_time_scale", "average"),
}


def _records() -> dict[str, object]:
    """One instance of each record, from real model calls."""
    gpu = GPUDevice(P100).run_matmul(14336, 32, 1, 24)
    cpu = MulticoreCPU(HASWELL).run_dgemm(17408, DGEMMConfig("row", 4, 6))
    op = solve_operating_clock(
        P100, P100_CAL, lambda f: P100_CAL.power_cap_w * f / P100.base_clock_hz
    )
    return {
        "KernelRunResult": gpu,
        "PowerBreakdown": gpu.power,
        "OperatingPoint": op,
        "CPURunResult": cpu,
        "CPUPowerBreakdown": cpu.power,
        "UtilizationVector": cpu.utilization,
    }


RECORDS = _records()


@pytest.mark.parametrize("name", FIELDS)
def test_fields_are_in_the_documented_order(name):
    record = RECORDS[name]
    assert type(record).__name__ == name
    assert type(record)._fields == FIELDS[name]


@pytest.mark.parametrize("name", FIELDS)
def test_no_field_can_be_assigned(name):
    record = RECORDS[name]
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1


def _left_to_right(values) -> float:
    total = values[0]
    for v in values[1:]:
        total = total + v
    return total


@pytest.mark.parametrize(
    "spec, args, kwargs",
    [
        (K40C, (10240, 32), {}),
        (K40C, (4096, 16, 2, 3), {"fixed_clock": True}),
        (P100, (10240, 24, 2, 1), {}),
        (P100, (14336, 32, 1, 24), {}),
        (P100, (4096, 24), {"pinned_clock_hz": 900e6}),
    ],
)
def test_gpu_dynamic_power_is_the_left_to_right_sum(spec, args, kwargs):
    result = GPUDevice(spec).run_matmul(*args, **kwargs)
    power = result.power
    expected = _left_to_right([getattr(power, f) for f in FIELDS["PowerBreakdown"]])
    assert power.dynamic_w.hex() == expected.hex()
    assert result.dynamic_power_w.hex() == expected.hex()


@pytest.mark.parametrize("freq_scale", [1.0, 0.7])
@pytest.mark.parametrize(
    "config",
    [DGEMMConfig("row", 1, 1), DGEMMConfig("col", 4, 6, "openblas"),
     DGEMMConfig("block", 12, 4)],
    ids=lambda c: c.key(),
)
def test_cpu_dynamic_power_is_the_left_to_right_sum(config, freq_scale):
    result = MulticoreCPU(HASWELL).run_dgemm(17408, config, freq_scale=freq_scale)
    power = result.power
    expected = _left_to_right(
        [getattr(power, f) for f in FIELDS["CPUPowerBreakdown"]]
    )
    assert power.dynamic_w.hex() == expected.hex()
    assert result.dynamic_energy_j.hex() == (expected * result.time_s).hex()
