"""Simulated CUPTI event/metric collection.

The paper's Section V.C reports that CUPTI events were intended for a
GPU dynamic-energy model (per the theory of energy predictive models
[33]) but "many key events and metrics overflow for large matrix sizes
(N > 2048) and reported inaccurate counts", making the library
"inadequate to analyze the energy nonproportionality of the GPUs".

This module reproduces both sides of that finding:

* analytic per-launch event counts derived from the kernel resource
  model (exact, additive by construction at the modelled level);
* the hardware failure mode: event counters are 32-bit on the modelled
  parts, so counts wrap modulo 2³² — large-N profiles silently report
  garbage, which :meth:`CuptiProfiler.profile` flags per event.

Event names follow the CUPTI convention for the parts
(``flop_count_dp``, ``gld_transactions``, ``shared_load`` ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.machines.specs import GPUSpec
from repro.simgpu.calibration import GPUCalibration
from repro.simgpu.kernel import KernelResources, matmul_kernel_resources
from repro.simgpu.occupancy import warps_per_block

__all__ = ["EventReading", "CuptiProfiler", "EVENT_NAMES"]

#: Counter width of the modelled event hardware.
COUNTER_BITS = 32
_WRAP = 1 << COUNTER_BITS

#: Events the profiler exposes, in a stable order.
EVENT_NAMES: tuple[str, ...] = (
    "flop_count_dp",
    "inst_executed",
    "shared_load",
    "shared_store",
    "gld_transactions",
    "gst_transactions",
    "l2_read_transactions",
    "dram_read_transactions",
    "dram_write_transactions",
    "warps_launched",
    "active_cycles",
)


@dataclass(frozen=True)
class EventReading:
    """One profiled event: reported (possibly wrapped) and true counts."""

    name: str
    reported: int
    true_count: int

    @property
    def overflowed(self) -> bool:
        return self.true_count >= _WRAP

    @property
    def reliable(self) -> bool:
        """Whether the reported count equals the true count."""
        return not self.overflowed


class CuptiProfiler:
    """Analytic event profiler for the blocked matmul kernel."""

    def __init__(self, spec: GPUSpec, cal: GPUCalibration) -> None:
        self.spec = spec
        self.cal = cal

    def true_counts(self, res: KernelResources, r: int = 1) -> dict[str, int]:
        """Exact event counts for R launches of the kernel."""
        if r < 1:
            raise ValueError("R must be at least 1")
        spec = self.spec
        warps_per_launch = (
            res.grid_blocks
            * warps_per_block(spec, res.threads_per_block, math.ceil)
            * res.g
        )
        warp_insts = res.lanes_issued / spec.warp_size
        shared_loads = 2.0 * warp_insts  # two shared reads per FMA step
        shared_stores = (
            # one tile-pair store per thread per tile step per product
            2.0 * res.g * res.grid_blocks * res.ksteps_per_product
            * res.threads_per_block / spec.warp_size
        )
        sector = spec.dram_sector_bytes
        gld = (res.total_dram_bytes - res.g * res.traffic.dram_write_bytes) / sector
        gst = res.g * res.traffic.dram_write_bytes / sector
        l2_reads = res.g * res.traffic.useful_read_bytes / sector
        counts = {
            "flop_count_dp": res.useful_flops,
            "inst_executed": warp_insts,
            "shared_load": shared_loads,
            "shared_store": shared_stores,
            "gld_transactions": l2_reads,  # global loads hit L2 first
            "gst_transactions": gst,
            "l2_read_transactions": l2_reads,
            "dram_read_transactions": gld,
            "dram_write_transactions": gst,
            "warps_launched": float(warps_per_launch),
            "active_cycles": res.compute_cycles_per_kstep
            * res.ksteps_per_product
            * res.grid_blocks
            * res.g,
        }
        return {k: int(round(v)) * r for k, v in counts.items()}

    def profile(
        self, n: int, bs: int, g: int = 1, r: int = 1
    ) -> dict[str, EventReading]:
        """Profile R launches of the (N, BS, G) kernel.

        Reported counts wrap at 2³² exactly like the paper observed for
        N > 2048; check :attr:`EventReading.reliable` before using a
        count in an energy model.
        """
        res = matmul_kernel_resources(self.spec, self.cal, n, bs, g)
        true = self.true_counts(res, r)
        return {
            name: EventReading(
                name=name, reported=count % _WRAP, true_count=count
            )
            for name, count in true.items()
        }

    def metrics(
        self, n: int, bs: int, g: int = 1, r: int = 1
    ) -> dict[str, float]:
        """CUPTI-style *derived metrics* computed from reported events.

        Mirrors the metric definitions profiling tools derive from raw
        counters — and therefore inherits their failure mode: metrics
        computed from wrapped counters are silently wrong, exactly what
        the paper observed ("many key events and metrics overflow ...
        and reported inaccurate counts").

        Returns
        -------
        ``ipc`` (warp instructions per active cycle),
        ``flop_dp_efficiency`` (fraction of peak DP over active time),
        ``dram_read_throughput`` (bytes per active second), and
        ``gld_efficiency`` (useful/fetched global-read bytes).
        """
        readings = self.profile(n, bs, g, r)
        rep = {name: float(rd.reported) for name, rd in readings.items()}
        spec = self.spec
        active_cycles = max(rep["active_cycles"], 1.0)
        active_s = active_cycles / (spec.base_clock_hz * spec.sm_count)
        dram_read_bytes = rep["dram_read_transactions"] * spec.dram_sector_bytes
        useful_read_bytes = rep["l2_read_transactions"] * spec.dram_sector_bytes
        return {
            "ipc": rep["inst_executed"] / active_cycles * spec.sm_count,
            "flop_dp_efficiency": (
                rep["flop_count_dp"] / active_s / spec.peak_dp_flops
            ),
            "dram_read_throughput": dram_read_bytes / active_s,
            "gld_efficiency": (
                min(1.0, useful_read_bytes / dram_read_bytes)
                if dram_read_bytes > 0
                else 0.0
            ),
        }
