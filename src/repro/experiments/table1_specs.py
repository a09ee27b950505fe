"""Table I: specifications of the three experimental platforms."""

from __future__ import annotations

from typing import NamedTuple

from repro.analysis.report import format_table
from repro.machines.specs import CPUSpec, GPUSpec, HASWELL, K40C, P100

__all__ = ["Table1Result", "run"]


class Table1Result(NamedTuple):
    """The rendered platform-specification rows."""

    rows: tuple[tuple[str, str], ...]

    def render(self) -> str:
        return format_table(["specification", "value"], self.rows)


def _cpu_rows(spec: CPUSpec) -> list[tuple[str, str]]:
    return [
        (spec.name, ""),
        ("No. of cores per socket", str(spec.cores_per_socket)),
        ("Socket(s)", str(spec.sockets)),
        ("Hardware threads per core", str(spec.smt)),
        ("Base clock", f"{spec.base_clock_hz / 1e6:.0f} MHz"),
        ("L1d cache, L1i cache", f"{spec.l1d.capacity_bytes // 1024} KB, 32 KB"),
        (
            "L2 cache, L3 cache",
            f"{spec.l2.capacity_bytes // 1024} KB, "
            f"{spec.l3.capacity_bytes // 1024} KB",
        ),
        (
            "Total main memory",
            f"{spec.mem_capacity_bytes // 1024**3} GB DDR4",
        ),
        ("TDP (both sockets)", f"{spec.tdp_w:.0f} W"),
    ]


def _gpu_rows(spec: GPUSpec) -> list[tuple[str, str]]:
    return [
        (spec.name, ""),
        (
            "No. of CUDA cores (Base clock)",
            f"{spec.cuda_cores} ({spec.base_clock_hz / 1e6:.0f} MHz)",
        ),
        (
            "Total board memory",
            f"{spec.mem_capacity_bytes // 1024**3} GB",
        ),
        ("L2 cache size", f"{spec.l2_bytes // 1024} KB"),
        ("Thermal design power (TDP)", f"{spec.tdp_w:.0f} W"),
        ("Streaming multiprocessors", str(spec.sm_count)),
        (
            "Peak DP throughput",
            f"{spec.peak_dp_flops / 1e12:.2f} TFLOP/s",
        ),
    ]


def run() -> Table1Result:
    """Regenerate Table I from the machine registry."""
    rows: list[tuple[str, str]] = []
    rows.extend(_cpu_rows(HASWELL))
    rows.extend(_gpu_rows(K40C))
    rows.extend(_gpu_rows(P100))
    return Table1Result(rows=tuple(rows))
