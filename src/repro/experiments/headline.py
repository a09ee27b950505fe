"""Headline claims: front statistics and maximum savings over workloads.

The abstract's quantitative claims aggregate "a wide range of
workloads":

* K40c — global Pareto front: 1 point (performance-optimal is also
  energy-optimal, its BS = 32); local fronts: average 4 points,
  maximum 5; maximum dynamic energy saving 18% at a 7% performance
  degradation.
* P100 — global fronts: average 2 points, maximum 3; maximum saving
  50% at 11% degradation.

This experiment sweeps a range of matrix sizes per device and
aggregates the same statistics from the simulator.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from repro.analysis.ep_analysis import materialize
from repro.analysis.report import format_pct, format_table
from repro.apps.matmul_gpu import MatmulGPUApp
from repro.core.pareto import front_indices
from repro.core.tradeoff import max_energy_saving
from repro.machines import K40C, P100
from repro.machines.specs import GPUSpec

if TYPE_CHECKING:  # pragma: no cover
    from repro.sweep.planner import EvalPlanner

__all__ = ["DeviceHeadline", "HeadlineResult", "run", "requests", "DEFAULT_SIZES"]

#: Workload ranges per device ("a wide range of workloads").
DEFAULT_SIZES: dict[str, tuple[int, ...]] = {
    "k40c": (5120, 6144, 8192, 8704, 10240, 12288),
    "p100": (5120, 6144, 8192, 10240, 12288, 14336, 15360, 18432),
}


def requests(sizes: dict[str, tuple[int, ...]] | None = None):
    """The sweep requests this experiment will make (planner protocol)."""
    from repro.sweep.plan import SweepRequest

    if sizes is None:
        sizes = DEFAULT_SIZES
    return tuple(
        SweepRequest(device=device, n=n)
        for device in ("k40c", "p100")
        for n in sizes[device]
    )


class DeviceHeadline(NamedTuple):
    """Aggregated front statistics for one device."""

    device: str
    sizes: tuple[int, ...]
    global_sizes: tuple[int, ...]
    local_sizes: tuple[int, ...]
    global_front_avg: float
    global_front_max: int
    local_front_avg: float
    local_front_max: int
    #: Largest (saving, degradation) over sizes — global for the P100,
    #: local (BS ≤ 31) for the K40c whose global front is one point.
    max_saving: float
    max_saving_degradation: float
    global_bs_always_32: bool


class HeadlineResult(NamedTuple):
    devices: tuple[DeviceHeadline, ...]

    def render(self) -> str:
        rows = []
        for d in self.devices:
            rows.append(
                (
                    d.device,
                    f"{d.global_front_avg:.1f} / {d.global_front_max}",
                    f"{d.local_front_avg:.1f} / {d.local_front_max}",
                    format_pct(d.max_saving),
                    format_pct(d.max_saving_degradation),
                    "yes" if d.global_bs_always_32 else "no",
                )
            )
        return format_table(
            [
                "device",
                "global front avg/max",
                "local front avg/max",
                "max saving",
                "at degradation",
                "global front BS=32 only",
            ],
            rows,
        )


def _analyze(
    spec: GPUSpec,
    sizes: tuple[int, ...],
    engine: "EvalPlanner | None" = None,
) -> DeviceHeadline:
    app = MatmulGPUApp(spec)
    global_sizes: list[int] = []
    local_sizes: list[int] = []
    best_saving = 0.0
    best_deg = 0.0
    bs32_only = True
    for n in sizes:
        table = app.sweep_table(n, engine=engine)
        times, energies = table["time_s"], table["energy_j"]
        g_idx = front_indices(times, energies)
        sub = np.flatnonzero(table["bs"] <= 31)
        l_idx = sub[front_indices(times[sub], energies[sub])]
        global_sizes.append(len(g_idx))
        local_sizes.append(len(l_idx))
        if (table["bs"][g_idx] != 32).any():
            bs32_only = False
        # The savings pool: global trade-offs when the global front is
        # non-degenerate, local trade-offs otherwise (the paper's K40c
        # methodology).  The max-saving entry of a point set equals
        # that of its Pareto front, so only front rows materialize.
        pool_idx = g_idx if len(g_idx) > 1 else l_idx
        entry = max_energy_saving(list(materialize(table, pool_idx)))
        if entry.energy_saving > best_saving:
            best_saving = entry.energy_saving
            best_deg = entry.perf_degradation
    return DeviceHeadline(
        device=spec.name,
        sizes=sizes,
        global_sizes=tuple(global_sizes),
        local_sizes=tuple(local_sizes),
        global_front_avg=sum(global_sizes) / len(global_sizes),
        global_front_max=max(global_sizes),
        local_front_avg=sum(local_sizes) / len(local_sizes),
        local_front_max=max(local_sizes),
        max_saving=best_saving,
        max_saving_degradation=best_deg,
        global_bs_always_32=bs32_only,
    )


def run(
    sizes: dict[str, tuple[int, ...]] | None = None,
    *,
    engine: "EvalPlanner | None" = None,
) -> HeadlineResult:
    """Aggregate the headline statistics over the workload ranges."""
    from repro import obs

    if sizes is None:
        sizes = DEFAULT_SIZES
    with obs.span(
        "experiment.headline",
        sizes=sum(len(v) for v in sizes.values()),
    ):
        return HeadlineResult(
            devices=(
                _analyze(K40C, sizes["k40c"], engine),
                _analyze(P100, sizes["p100"], engine),
            )
        )
