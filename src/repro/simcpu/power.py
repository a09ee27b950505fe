"""CPU component power model.

Dynamic power of the dual-socket node during a DGEMM run decomposes
into:

* **Cores** — a wake cost per active physical core, plus energy per
  retired flop (the AVX2 FMA pipes dominate), plus a small increment
  for an active second hyperthread.
* **Uncore** — per-socket wake cost (ring interconnect, LLC, memory
  controllers) plus DRAM energy per byte moved.
* **dTLB page walks** — the disproportionately energy-expensive
  activity that [8] identifies as the driver of multicore energy
  nonproportionality.  Walk volume grows with DRAM traffic and is
  multiplied by dTLB thrash when several threadgroups stream the
  shared B matrix concurrently.

The per-component decomposition is exposed so experiments (and the
energy-model package) can attribute nonproportionality to components,
mirroring the qualitative model of [8].
"""

from __future__ import annotations

from typing import NamedTuple

from repro.machines.specs import CPUSpec
from repro.simcpu.calibration import CPUCalibration
from repro.simcpu.topology import Placement

__all__ = ["CPUPowerBreakdown", "cpu_power"]


class CPUPowerBreakdown(NamedTuple):
    """Average dynamic power of one run, by component (watts)."""

    cores_w: float
    flops_w: float
    uncore_w: float
    dram_w: float
    dtlb_w: float

    @property
    def dynamic_w(self) -> float:
        return (
            self.cores_w + self.flops_w + self.uncore_w + self.dram_w + self.dtlb_w
        )


def page_walk_rate(
    traffic_bytes_per_s: float,
    n_groups: int,
    cal: CPUCalibration,
    *,
    walk_factor: float = 1.0,
) -> float:
    """dTLB page walks per second.

    A single stream suffers ``walks_per_gb`` walks per GB of traffic
    (its reach misses on a fraction of 4 KiB page crossings); each
    extra threadgroup multiplies walks by ``1 + walk_thrash_per_group``
    because the concurrent B streams evict each other's dTLB entries.
    ``walk_factor`` carries partition- and library-specific access
    pattern effects (strided column partitions cross pages far more
    often).
    """
    if n_groups < 1:
        raise ValueError("need at least one threadgroup")
    if walk_factor <= 0:
        raise ValueError("walk_factor must be positive")
    base = cal.walks_per_gb * traffic_bytes_per_s / 1e9 * walk_factor
    return base * (1.0 + cal.walk_thrash_per_group * (n_groups - 1))


def cpu_power(
    spec: CPUSpec,
    cal: CPUCalibration,
    placement: Placement,
    *,
    flops_per_s: float,
    traffic_bytes_per_s: float,
    n_groups: int,
    walk_factor: float = 1.0,
) -> CPUPowerBreakdown:
    """Average dynamic power for one configuration's steady state."""
    if flops_per_s < 0 or traffic_bytes_per_s < 0:
        raise ValueError("rates must be non-negative")
    cores = (
        cal.p_core_base_w * placement.active_physical_cores
        + cal.p_smt_extra_w * placement.smt_cores
    )
    flops = cal.e_flop_j * flops_per_s
    uncore = cal.p_uncore_w * placement.active_sockets
    dram = cal.e_dram_j_per_byte * traffic_bytes_per_s
    walks = page_walk_rate(
        traffic_bytes_per_s, n_groups, cal, walk_factor=walk_factor
    )
    dtlb = cal.e_page_walk_j * walks
    return CPUPowerBreakdown(cores, flops, uncore, dram, dtlb)
