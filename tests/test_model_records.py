"""The contract of the named-tuple records and results.

``KernelRunResult``, ``PowerBreakdown``, ``OperatingPoint`` and the
per-configuration ``KernelResources``, ``Occupancy`` and
``TrafficModel`` (``repro.simgpu``), and ``CPURunResult``,
``CPUPowerBreakdown`` and ``UtilizationVector`` (``repro.simcpu``), are
immutable named tuples:
their fields keep the documented order, no field can be reassigned,
and the derived ``dynamic_w`` is the left-to-right sum of the
components, bit for bit.  The experiments' results and rows and the
other records a cold command defines are named tuples too, with their
fields in the documented order; that check reads the classes and runs
no experiment.
"""

from __future__ import annotations

import importlib

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
    "KernelResources": (
        "n", "bs", "g", "threads_per_block", "smem_per_block_bytes",
        "grid_blocks", "ksteps_per_product", "compute_cycles_per_kstep",
        "tile_fetch_bytes", "total_dram_bytes", "lanes_issued",
        "useful_flops", "lane_eff", "replay_factor", "traffic",
    ),
    "Occupancy": (
        "blocks_per_sm", "active_threads_per_sm", "active_warps_per_sm",
        "occupancy", "warp_occupancy", "limiter",
    ),
    "TrafficModel": (
        "useful_read_bytes", "l2_hit_fraction", "dram_read_bytes",
        "dram_write_bytes", "coalescing",
    ),
    "StrongEPResult": (
        "holds", "coefficient", "max_relative_deviation", "r_squared",
        "tolerance",
    ),
    "WeakEPResult": (
        "holds", "mean_energy_j", "max_relative_spread",
        "coefficient_of_variation", "tolerance",
    ),
    "TradeoffEntry": ("point", "energy_saving", "perf_degradation"),
    "EvaluatedConfig": ("config", "time_s", "energy_j"),
    "StrongEPStudy": ("device", "work", "energy_j", "result"),
    "NonfunctionalityVerdict": (
        "ratio", "worst_bin_center", "worst_bin_spread", "n_bins_used",
        "nonfunctional", "threshold",
    ),
    "ReportSection": ("title", "body"),
    "ThreadAssignment": ("group", "thread", "row_start", "row_end"),
    "GroupAssignment": ("group", "row_start", "row_end", "threads"),
    "FFTDeviceProfile": (
        "name", "base_gflops", "dynamic_power_w", "cache_bytes",
        "dram_energy_scale", "dram_throughput_scale", "bluestein_factor",
    ),
    "FFTRunResult": ("n", "work", "time_s", "dynamic_energy_j", "device"),
    "DeviceDefinition": (
        "key", "kind", "spec", "calibration", "description", "source",
    ),
    "AdditivityResult": ("quantity", "base_sum", "compound", "error", "additive"),
    "LibraryProfile": (
        "name", "peak_efficiency", "skinny_rows", "skinny_floor",
        "walk_factor",
    ),
    "LogicalCPU": ("index", "socket", "physical_core", "hyperthread"),
    "Experiment": (
        "id", "module", "title", "section", "sweep", "function", "devices",
        "report_cut",
    ),
    "Table1Result": ("rows",),
    "Fig1Result": ("studies",),
    "Fig3Result": ("diagram", "configurations_checked", "violations"),
    "LibrarySeries": (
        "library", "utilization_pct", "power_w", "gflops", "plateau_gflops",
        "ramp_r_squared", "n_witness_pairs", "max_power_gap_w",
        "nonfunctionality_ratio",
    ),
    "Fig4Result": ("n", "series"),
    "Fig5Result": (
        "source", "group_routines", "dispatch_kernels", "sync_calls", "lines",
    ),
    "AdditivityCell": (
        "n", "g", "energy_error", "time_error", "energy_error_reattributed",
    ),
    "Fig6Result": ("device", "bs", "cells", "threshold_n"),
    "Fig7Result": ("studies",),
    "Fig8Result": ("studies",),
    "DeviceHeadline": (
        "device", "sizes", "global_sizes", "local_sizes", "global_front_avg",
        "global_front_max", "local_front_avg", "local_front_max",
        "max_saving", "max_saving_degradation", "global_bs_always_32",
    ),
    "HeadlineResult": ("devices",),
    "SensitivityRow": (
        "constant", "k40c_verdict_held", "p100_verdict_held", "trials",
    ),
    "SensitivityResult": ("rows", "n"),
    "BudgetRow": ("budget", "budget_fraction", "front_size", "igd", "epsilon"),
    "BudgetedSearchResult": (
        "device", "n", "space_size", "exhaustive_front_size", "rows",
    ),
}

#: The module under ``repro`` that defines each class.
MODULES = {
    "KernelRunResult": "simgpu.device",
    "PowerBreakdown": "simgpu.power",
    "OperatingPoint": "simgpu.dvfs",
    "CPURunResult": "simcpu.processor",
    "CPUPowerBreakdown": "simcpu.power",
    "UtilizationVector": "simcpu.utilization",
    "KernelResources": "simgpu.kernel",
    "Occupancy": "simgpu.occupancy",
    "TrafficModel": "simgpu.memhier",
    "StrongEPResult": "core.definitions",
    "WeakEPResult": "core.definitions",
    "TradeoffEntry": "core.tradeoff",
    "EvaluatedConfig": "core.biobjective",
    "StrongEPStudy": "analysis.ep_analysis",
    "NonfunctionalityVerdict": "analysis.nonfunctionality",
    "ReportSection": "analysis.summary",
    "ThreadAssignment": "apps.decomposition",
    "GroupAssignment": "apps.decomposition",
    "FFTDeviceProfile": "apps.fft2d",
    "FFTRunResult": "apps.fft2d",
    "DeviceDefinition": "devices.schema",
    "AdditivityResult": "energymodel.additivity",
    "LibraryProfile": "simcpu.calibration",
    "LogicalCPU": "simcpu.topology",
    "Experiment": "experiments",
    "Table1Result": "experiments.table1_specs",
    "Fig1Result": "experiments.fig1_strong_ep",
    "Fig3Result": "experiments.fig3_decomposition",
    "LibrarySeries": "experiments.fig4_cpu_utilization",
    "Fig4Result": "experiments.fig4_cpu_utilization",
    "Fig5Result": "experiments.fig5_source",
    "AdditivityCell": "experiments.fig6_additivity",
    "Fig6Result": "experiments.fig6_additivity",
    "Fig7Result": "experiments.fig7_k40c_pareto",
    "Fig8Result": "experiments.fig8_p100_pareto",
    "DeviceHeadline": "experiments.headline",
    "HeadlineResult": "experiments.headline",
    "SensitivityRow": "experiments.sensitivity",
    "SensitivityResult": "experiments.sensitivity",
    "BudgetRow": "experiments.budgeted_search",
    "BudgetedSearchResult": "experiments.budgeted_search",
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
        "KernelResources": gpu.resources,
        "Occupancy": gpu.occupancy,
        "TrafficModel": gpu.resources.traffic,
    }


RECORDS = _records()


@pytest.mark.parametrize("name", FIELDS)
def test_fields_are_in_the_documented_order(name):
    cls = getattr(importlib.import_module(f"repro.{MODULES[name]}"), name)
    assert issubclass(cls, tuple)
    assert cls._fields == FIELDS[name]


@pytest.mark.parametrize("name", RECORDS)
def test_model_calls_return_the_records(name):
    assert type(RECORDS[name]).__name__ == name


@pytest.mark.parametrize("name", RECORDS)
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
